package nic

// This file models the MSI-X vector table living in BAR3 of each VF, per
// the 82576VF layout the paper's drivers program. The table is the one BAR
// page the hypervisor traps on (§5.1's mask/unmask writes land here); every
// other BAR is mapped straight into the guest.

// MSI-X table geometry: entry i at offset i*16, its vector-control dword at
// +12. The driver also programs each entry's message address and data, but
// the model delivers an interrupt through the queue's Sink, so only the
// vector-control (mask) dword of entry 0, the queue's vector, has an effect.
const (
	MSIXTableBAR    = 3
	msixOffVectCtrl = 12
)

// MSIXVectorCtlMask is bit 0 of the vector control dword.
const MSIXVectorCtlMask = 1

// msixWrite handles a write to a VF's MSI-X table page: entry 0's mask bit
// gates the queue's interrupt. A PF has no table in BAR3.
func (q *Queue) msixWrite(off uint64, val uint64) {
	if q.fn.IsVF() && off == msixOffVectCtrl {
		q.SetMasked(val&MSIXVectorCtlMask != 0)
	}
}
