// Package drivers implements the device drivers of the paper's architecture:
// the PF driver managing an SR-IOV port from dom0 (§4.1), the guest VF
// driver with its ISR and coalescing policies (§5), the Xen PV split driver
// (netfront/netback) used as the baseline and as DNIS's standby interface,
// the VMDq comparison driver (§6.6), and the bonding driver DNIS builds on
// (§4.4).
package drivers

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/nic"
	"repro/internal/pcie"
	"repro/internal/units"
	"repro/internal/vmm"
)

// PFDriver is the physical-function driver running in dom0 (the paper runs
// IGB 1.3.21.5 there). It enables VFs through the SR-IOV capability,
// programs the layer-2 switch, and polices VF configuration requests
// arriving over the mailbox (§4.2, §4.3).
type PFDriver struct {
	hv   *vmm.Hypervisor
	port *nic.Port

	vfMACs  map[int]nic.MAC
	vfVLANs map[int][]uint16
	// Policy hook: §4.3 "The PF driver inspects configuration requests
	// from VF drivers ... It may take appropriate action if it finds
	// anything unusual." Returning false nacks the request.
	InspectRequest func(msg nic.Message) bool

	// Nacked counts the requests the policy refused.
	Nacked int64
}

// mailboxHandleCycles is dom0's cost to service one VF mailbox request.
const mailboxHandleCycles units.Cycles = 8000

// NewPFDriver initializes the PF driver on a port and registers its mailbox
// handler.
func NewPFDriver(hv *vmm.Hypervisor, port *nic.Port) *PFDriver {
	d := &PFDriver{hv: hv, port: port, vfMACs: make(map[int]nic.MAC), vfVLANs: make(map[int][]uint16)}
	port.Mailbox().PFHandler = d.handleMailbox
	return d
}

// EnableVFs programs NumVFs and VF Enable in the PF's SR-IOV capability —
// after this, the VFs respond to targeted config access and can be hot-added
// to the host and assigned to guests.
func (d *PFDriver) EnableVFs(n int) error {
	cap, ok := pcie.SRIOVCapAt(d.port.PF().Config())
	if !ok {
		return fmt.Errorf("drivers: port %s has no SR-IOV capability", d.port.Name())
	}
	if n < 0 || n > cap.TotalVFs() {
		return fmt.Errorf("drivers: %d VFs requested, hardware supports %d", n, cap.TotalVFs())
	}
	cap.SetNumVFs(n)
	ctl := uint16(0)
	if n > 0 {
		ctl = pcie.SRIOVCtlVFEnable | pcie.SRIOVCtlVFMSE
	}
	d.port.PF().ConfigWrite16(cap.Offset()+0x08, ctl)
	d.hv.ChargeDom0(50000) // sysfs sriov_numvfs path
	return nil
}

// SetDom0MAC routes a MAC to the PF's own queue (dom0/bridge traffic).
func (d *PFDriver) SetDom0MAC(mac nic.MAC) {
	d.port.SetMAC(mac, d.port.PFQueue())
}

// handleMailbox services VF→PF requests, charging dom0 and enforcing
// policy.
func (d *PFDriver) handleMailbox(msg nic.Message) {
	d.hv.ChargeDom0(mailboxHandleCycles)
	// Ack/Nack echo the request kind in Arg so a retrying VF driver can
	// match the response to its pending request.
	nack := nic.Message{Kind: nic.MsgNack, VF: msg.VF, Arg: uint64(msg.Kind)}
	if d.InspectRequest != nil && !d.InspectRequest(msg) {
		d.Nacked++
		d.port.Mailbox().SendToVF(nack)
		return
	}
	switch msg.Kind {
	case nic.MsgSetMAC:
		mac := nic.MAC(msg.Arg)
		// Refuse a MAC already owned by another VF (basic anti-spoof).
		for other, m := range d.vfMACs {
			if m == mac && other != msg.VF {
				d.Nacked++
				d.port.Mailbox().SendToVF(nack)
				return
			}
		}
		d.vfMACs[msg.VF] = mac
		d.port.SetMAC(mac, d.port.VFQueue(msg.VF))
	case nic.MsgReset:
		// Driver teardown: release the VF's MAC and VLAN filters.
		if mac, ok := d.vfMACs[msg.VF]; ok {
			d.port.ClearMAC(mac)
			for _, vlan := range d.vfVLANs[msg.VF] {
				d.port.ClearMACVLAN(mac, vlan)
			}
			delete(d.vfMACs, msg.VF)
			delete(d.vfVLANs, msg.VF)
		}
	case nic.MsgSetVLAN:
		// Program a (MAC, VLAN) filter for the VF's MAC.
		if mac, ok := d.vfMACs[msg.VF]; ok {
			d.port.SetMACVLAN(mac, uint16(msg.Arg), d.port.VFQueue(msg.VF))
			d.vfVLANs[msg.VF] = append(d.vfVLANs[msg.VF], uint16(msg.Arg))
		}
	case nic.MsgSetMulticast:
		// Accepted; no datapath effect in the model.
	}
	d.port.Mailbox().SendToVF(nic.Message{Kind: nic.MsgAck, VF: msg.VF, Arg: uint64(msg.Kind)})
}

// VFVLANs reports the VLANs joined by a VF.
func (d *PFDriver) VFVLANs(vf int) []uint16 { return d.vfVLANs[vf] }

// ShutdownVF tears down a VF that misbehaves (§4.3: "it can shut down the
// VF assigned to a VM, if it suffers a security breach").
func (d *PFDriver) ShutdownVF(vf int) {
	if mac, ok := d.vfMACs[vf]; ok {
		d.port.ClearMAC(mac)
		for _, vlan := range d.vfVLANs[vf] {
			d.port.ClearMACVLAN(mac, vlan)
		}
		delete(d.vfMACs, vf)
		delete(d.vfVLANs, vf)
	}
	q := d.port.VFQueue(vf)
	q.SetIntrEnabled(false)
	d.port.Mailbox().SendToVF(nic.Message{Kind: nic.MsgDriverRemove, VF: vf})
	d.hv.ChargeDom0(20000)
}

// NotifyLinkChange broadcasts a link-status event to all VF drivers (§4.2's
// PF→VF event forwarding).
func (d *PFDriver) NotifyLinkChange() {
	d.port.Mailbox().Broadcast(nic.MsgLinkChange)
	d.hv.ChargeDom0(5000)
}

// SetLink drives the port's physical link state and forwards the event to
// the VF drivers — the PF driver owns the PHY, so cable events surface
// here first.
func (d *PFDriver) SetLink(up bool) {
	d.port.SetLink(up)
	d.NotifyLinkChange()
}

// GlobalReset models the PF driver resetting the whole device: it first
// broadcasts the §4.2 "impending global device reset" notification, then
// after a short notice window wipes every queue's hardware state. VF
// drivers are expected to quiesce on the notification and re-initialize
// through FLR afterwards.
func (d *PFDriver) GlobalReset() {
	d.port.Mailbox().Broadcast(nic.MsgDeviceReset)
	d.hv.ChargeDom0(80000) // igb reset path
	d.hv.Engine().After(model.DeviceResetNotice, "pf:global-reset", func() {
		d.port.ResetDevice()
	})
}
