package nic

import (
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/units"
)

// MsgKind enumerates the PF↔VF mailbox message types of §4.2: configuration
// requests from the VF driver and event notifications from the PF driver.
type MsgKind int

// Mailbox message kinds.
const (
	// VF → PF requests.
	MsgSetMAC MsgKind = iota
	MsgSetMulticast
	MsgSetVLAN
	MsgReset
	// PF → VF notifications ("impending global device reset, link status
	// change, and impending driver removal").
	MsgLinkChange
	MsgDeviceReset
	MsgDriverRemove
	// Acknowledgement. For Ack/Nack the Arg field echoes the MsgKind of
	// the request being answered, so a retrying VF driver can match
	// responses to its pending request.
	MsgAck
	MsgNack
)

func (k MsgKind) String() string {
	switch k {
	case MsgSetMAC:
		return "set-mac"
	case MsgSetMulticast:
		return "set-multicast"
	case MsgSetVLAN:
		return "set-vlan"
	case MsgReset:
		return "reset"
	case MsgLinkChange:
		return "link-change"
	case MsgDeviceReset:
		return "device-reset"
	case MsgDriverRemove:
		return "driver-remove"
	case MsgAck:
		return "ack"
	case MsgNack:
		return "nack"
	default:
		return fmt.Sprintf("msg(%d)", int(k))
	}
}

// Message is one mailbox message.
type Message struct {
	Kind MsgKind
	VF   int // which VF's mailbox
	Arg  uint64
}

// Direction tags which way a mailbox message travels (for the fault hook).
type Direction int

// Mailbox directions.
const (
	ToPF Direction = iota
	ToVF
)

func (d Direction) String() string {
	if d == ToPF {
		return "vf->pf"
	}
	return "pf->vf"
}

// SendVerdict is the fault injector's disposition for one mailbox send: the
// message can be silently lost in flight (Drop) or see extra in-flight
// latency (Delay). The zero value delivers normally.
type SendVerdict struct {
	Drop  bool
	Delay units.Duration
}

// Mailbox models the 82576's hardware PF↔VF channel: "a simple mailbox and
// doorbell system. The sender writes a message to the mailbox and then
// 'rings the doorbell', which will interrupt and notify the receiver"
// (§4.2). One message slot exists per VF in each direction; writing while
// the previous message is unconsumed fails, as real producers must wait for
// the acknowledgment bit.
type Mailbox struct {
	port *Port

	// PFHandler receives VF→PF messages (the PF driver registers it).
	PFHandler func(Message)
	// vfHandlers receive PF→VF messages (VF drivers register them).
	vfHandlers map[int]func(Message)

	toPF map[int]*Message // per-VF slot
	toVF map[int]*Message

	// OnSend, when set, rules on every send before the doorbell is
	// scheduled — the fault injector's hook.
	OnSend func(dir Direction, msg Message) SendVerdict
}

func newMailbox(p *Port) *Mailbox {
	return &Mailbox{
		port:       p,
		vfHandlers: make(map[int]func(Message)),
		toPF:       make(map[int]*Message),
		toVF:       make(map[int]*Message),
	}
}

// SetVFHandler registers the VF driver's doorbell handler.
func (m *Mailbox) SetVFHandler(vf int, h func(Message)) { m.vfHandlers[vf] = h }

// ClearVFHandler removes a VF's handler (driver teardown).
func (m *Mailbox) ClearVFHandler(vf int) { delete(m.vfHandlers, vf) }

// verdict consults the fault hook, tracing a drop. A dropped message is
// lost in flight: the sender saw a successful post, but no doorbell rings.
func (m *Mailbox) verdict(dir Direction, msg Message) SendVerdict {
	if m.OnSend == nil {
		return SendVerdict{}
	}
	v := m.OnSend(dir, msg)
	if v.Drop {
		m.port.Tracer.Emitf(m.port.eng.Now(), "mailbox", "drop",
			"%s %s vf=%d lost in flight", dir, msg.Kind, msg.VF)
	}
	return v
}

// SendToPF posts a VF→PF message and rings the PF's doorbell. Delivery
// takes MailboxLatency of simulated time.
func (m *Mailbox) SendToPF(msg Message) error {
	if m.toPF[msg.VF] != nil {
		return fmt.Errorf("nic: VF%d→PF mailbox busy", msg.VF)
	}
	v := m.verdict(ToPF, msg)
	if v.Drop {
		return nil // the sender believes it was posted
	}
	return m.post(m.toPF, true, msg, model.MailboxLatency+v.Delay, "nic:mbox:pf")
}

// SendToVF posts a PF→VF message and rings that VF's doorbell.
func (m *Mailbox) SendToVF(msg Message) error {
	if m.toVF[msg.VF] != nil {
		return fmt.Errorf("nic: PF→VF%d mailbox busy", msg.VF)
	}
	v := m.verdict(ToVF, msg)
	if v.Drop {
		return nil
	}
	return m.post(m.toVF, false, msg, model.MailboxLatency+v.Delay, "nic:mbox:vf")
}

// post stores the message in its slot and schedules the doorbell. The
// closure re-reads the slot so a reset that clears it in the meantime also
// suppresses the delivery.
func (m *Mailbox) post(slots map[int]*Message, toPF bool, msg Message, delay units.Duration, label string) error {
	cp := msg
	slots[msg.VF] = &cp
	m.port.eng.After(delay, label, func() {
		stored := slots[msg.VF]
		if stored == nil {
			return
		}
		slots[msg.VF] = nil
		if toPF {
			if m.PFHandler != nil {
				m.PFHandler(*stored)
			}
		} else if h := m.vfHandlers[msg.VF]; h != nil {
			h(*stored)
		}
	})
	return nil
}

// Broadcast sends a PF→VF notification to every VF with a registered
// handler, in ascending VF order (the hardware rings doorbells by VF
// index; iteration order must not leak Go map randomness into the event
// schedule). It reports how many doorbells were actually posted; failures
// (busy slots) are traced.
func (m *Mailbox) Broadcast(kind MsgKind) int {
	vfs := make([]int, 0, len(m.vfHandlers))
	for vf := range m.vfHandlers {
		vfs = append(vfs, vf)
	}
	sort.Ints(vfs)
	posted := 0
	for _, vf := range vfs {
		if err := m.SendToVF(Message{Kind: kind, VF: vf}); err != nil {
			m.port.Tracer.Emitf(m.port.eng.Now(), "mailbox", "broadcast-drop",
				"%s to VF%d: %v", kind, vf, err)
			continue
		}
		posted++
	}
	return posted
}

// clearVF wipes both direction slots of one VF: in-flight messages die with
// the function (FLR, surprise removal).
func (m *Mailbox) clearVF(vf int) {
	m.toPF[vf] = nil
	m.toVF[vf] = nil
}

// clearAll wipes every slot (global device reset).
func (m *Mailbox) clearAll() {
	for vf := range m.toPF {
		m.toPF[vf] = nil
	}
	for vf := range m.toVF {
		m.toVF[vf] = nil
	}
}
