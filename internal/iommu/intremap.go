package iommu

import "fmt"

// This file models VT-d interrupt remapping: alongside DMA remapping, the
// IOMMU validates that a message-signalled interrupt actually came from the
// device the vector was programmed for. Without it, any bus-master device
// could forge an MSI write and inject an arbitrary vector — the interrupt
// counterpart of the §4.3 P2P DMA hole. Xen programs one remap entry per
// (vector, requester) when it binds a passthrough interrupt.

// IRTE is one interrupt-remapping table entry. The table has one per
// vector; an entry is in force only while Present is set.
type IRTE struct {
	Vector  uint8
	RID     uint16
	Present bool
}

// ProgramIRTE installs (or replaces) the remap entry allowing rid to signal
// vector.
func (u *IOMMU) ProgramIRTE(vector uint8, rid uint16) {
	u.irte[vector] = IRTE{Vector: vector, RID: rid, Present: true}
	u.irteProgrammed.Inc()
}

// ClearIRTE removes the entry for vector.
func (u *IOMMU) ClearIRTE(vector uint8) {
	u.irte[vector] = IRTE{}
	u.irteCleared.Inc()
}

// IRTEFor reports the entry for a vector.
func (u *IOMMU) IRTEFor(vector uint8) (IRTE, bool) {
	e := u.irte[vector]
	return e, e.Present
}

// ValidateMSI checks an interrupt message against the remapping table:
// the vector must have an entry and the requester must match. When no
// entry exists at all the interrupt is rejected too — remapping is
// all-or-nothing once enabled.
func (u *IOMMU) ValidateMSI(rid uint16, vector uint8) error {
	e := &u.irte[vector]
	if !e.Present {
		u.msiBlocked.Inc()
		return fmt.Errorf("iommu: no interrupt-remap entry for vector %d", vector)
	}
	if e.RID != rid {
		u.msiBlocked.Inc()
		return fmt.Errorf("iommu: vector %d belongs to rid %#04x, signalled by %#04x", vector, e.RID, rid)
	}
	u.msiRemapped.Inc()
	return nil
}
