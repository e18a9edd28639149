package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/drivers"
	"repro/internal/mem"
	"repro/internal/migration"
	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/units"
)

// MigrationSpec describes one inter-host DNIS migration.
type MigrationSpec struct {
	Src   *Host
	Guest *core.Guest // bonded DNIS guest on Src
	Dst   *Host
	// DstPort/DstVF pick the target-side VF for the hot add-on; Policy
	// its coalescing policy (nil = driver default).
	DstPort, DstVF int
	Policy         netstack.ITRPolicy
	// TargetName names the restored domain on the target host, which
	// keeps the source domain's type and kernel.
	TargetName string
}

// Migration tracks one in-flight (or finished) inter-host migration.
type Migration struct {
	// Target is the restored guest on the destination host; nil until the
	// stop-and-copy restore.
	Target *core.Guest
	// Result is set when the migration finishes (check Result.Err).
	Result *migration.Result
	// Channel is the fabric path the state moved over.
	Channel *FabricChannel
}

// MigrateDNIS live-migrates a bonded guest from spec.Src to spec.Dst over
// the fabric: the standard DNIS hot-removal and failover at the source,
// pre-copy chunks contending with foreground traffic on the shared links,
// then domain restore + MAC re-announcement on the target and the VF hot
// add-on there. The service MAC keeps its identity: after restore the ToR
// re-learns it behind the target's port, and frames sent meanwhile to the
// stale port show up as unknown-MAC drops — the fabric-visible downtime.
func (c *Cluster) MigrateDNIS(spec MigrationSpec, onDone func(*migration.Result)) (*Migration, error) {
	if spec.Src == nil || spec.Dst == nil || spec.Guest == nil {
		return nil, fmt.Errorf("cluster: migration needs source, destination and guest")
	}
	if spec.Src == spec.Dst {
		return nil, fmt.Errorf("cluster: source and destination host are the same")
	}
	if spec.Guest.Bond == nil {
		return nil, fmt.Errorf("cluster: inter-host DNIS needs a bonded guest")
	}
	// A target VF that does not exist would only fail after the source
	// has paused; refuse it before the hot removal starts.
	if err := spec.Dst.Bed.CheckVF(spec.DstPort, spec.DstVF); err != nil {
		return nil, fmt.Errorf("cluster: migration target %s: %w", spec.Dst.Name, err)
	}
	if spec.TargetName == "" {
		spec.TargetName = spec.Guest.Dom.Name + "-dst"
	}
	typ, kernel := spec.Guest.Dom.Type, spec.Guest.Dom.Kernel

	mig := &Migration{Channel: c.newFabricChannel(spec.Src, spec.Dst)}
	mgr := migration.NewManager(spec.Src.Bed.HV)
	serviceMAC := spec.Guest.MAC
	tgt := migration.TargetHooks{
		Restore: func() {
			gT, err := spec.Dst.Bed.AddPVGuest(spec.TargetName, typ, kernel, spec.DstPort)
			if err != nil {
				panic(fmt.Sprintf("cluster: target restore: %v", err))
			}
			mig.Target = gT
			// The service identity moves: the source stops claiming the
			// MAC, the target claims it and gratuitously announces it so
			// the ToR redirects the foreground flow.
			delete(spec.Src.sinks, serviceMAC)
			spec.Dst.sinks[serviceMAC] = func(b nic.Batch) { spec.Dst.deliverGuest(gT, b) }
			spec.Dst.announce(spec.Dst.Bed.Ports[spec.DstPort], serviceMAC)
		},
		HotAdd: func(done func()) {
			gT := mig.Target
			spec.Dst.Bed.HV.HotplugAdd(gT.Dom, func() {
				vf, err := spec.Dst.Bed.ReattachVF(gT, spec.DstPort, spec.DstVF, spec.Policy)
				if err != nil {
					// The target VF is unusable (surprise-removed, stolen, or
					// mid-reset). DNIS's whole point is that the PV standby
					// carries the service, so the migration completes degraded
					// — guest live on the target, PV-only — instead of dying.
					c.Obs.Counter("cluster.migration.hot_add_failures").Inc()
					done()
					return
				}
				gT.Bond = drivers.NewBond(spec.Dst.Bed.HV, gT.Dom, vf, gT.PV, spec.Dst.Bed.Ports[spec.DstPort])
				done()
			})
		},
	}
	err := mgr.MigrateDNISRemote(spec.Guest.Dom, spec.Guest.Bond, mig.Channel, tgt, func(r *migration.Result) {
		mig.Channel.close()
		mig.Result = r
		if onDone != nil {
			onDone(r)
		}
	})
	if err != nil {
		mig.Channel.close()
		return nil, err
	}
	return mig, nil
}

// FabricChannel is a migration.Channel that really crosses the fabric:
// state is cut into chunks, each transmitted from the source host's PF
// queue onto the wire (so it serializes behind — and ahead of — foreground
// traffic), switched, and detected at the target's dispatch table. The
// protocol is stop-and-wait with a retransmission watchdog: one chunk in
// flight, exponentially backed-off retries on loss, and a clean abort
// after model.MigrationChunkAttempts — so a flapping link slows or fails a
// migration but can never hang it.
type FabricChannel struct {
	cl      *Cluster
	src     *Host
	dst     *Host
	srcPort *nic.Port
	srcCtl  nic.MAC // learned source endpoint (keeps the fdb hot)
	dstCtl  nic.MAC // target endpoint the chunks are addressed to

	remaining units.Size
	cur       units.Size // current chunk size
	rx        units.Size // cumulative bytes observed at the target
	target    units.Size // rx level that completes the current chunk
	attempts  int
	watchdog  sim.Handle
	done      func(error)
	closed    bool

	txBytes *obs.Counter
	rxBytes *obs.Counter
	chunks  *obs.Counter
	retries *obs.Counter
	aborts  *obs.Counter
}

// newFabricChannel wires a channel from src to dst: control MACs are
// allocated, the target endpoint registered in dst's dispatch table and
// announced so the switch learns its location before the first chunk.
func (c *Cluster) newFabricChannel(src, dst *Host) *FabricChannel {
	ch := &FabricChannel{
		cl: c, src: src, dst: dst,
		srcPort: src.Bed.Ports[0],
		srcCtl:  c.allocCtlMAC(),
		dstCtl:  c.allocCtlMAC(),
		txBytes: c.Obs.Counter("cluster.migration.tx_bytes"),
		rxBytes: c.Obs.Counter("cluster.migration.rx_bytes"),
		chunks:  c.Obs.Counter("cluster.migration.chunks"),
		retries: c.Obs.Counter("cluster.migration.retries"),
		aborts:  c.Obs.Counter("cluster.migration.aborts"),
	}
	dst.sinks[ch.dstCtl] = ch.onRx
	dst.announce(dst.Bed.Ports[0], ch.dstCtl)
	src.announce(ch.srcPort, ch.srcCtl)
	return ch
}

// Send implements migration.Channel.
func (ch *FabricChannel) Send(size units.Size, done func(err error)) {
	if ch.closed {
		done(fmt.Errorf("cluster: migration channel closed"))
		return
	}
	ch.done = done
	ch.remaining = size
	ch.nextChunk()
}

func (ch *FabricChannel) nextChunk() {
	if ch.remaining == 0 {
		d := ch.done
		ch.done = nil
		d(nil)
		return
	}
	ch.cur = model.MigrationChunk
	if ch.cur > ch.remaining {
		ch.cur = ch.remaining
	}
	ch.target = ch.rx + ch.cur
	ch.attempts = 0
	ch.transmit()
}

// transmit puts the current chunk on the source wire and arms the
// watchdog. A refused transmit (link down, line backlogged) is not an
// error — the watchdog retries it.
func (ch *FabricChannel) transmit() {
	ch.attempts++
	frames := int((ch.cur + model.FrameSize - 1) / model.FrameSize)
	ch.srcPort.TransmitToWire(nic.Batch{Src: ch.srcCtl, Dst: ch.dstCtl, Count: frames, Bytes: ch.cur})
	ch.txBytes.Add(int64(ch.cur))
	backoff := ch.attempts - 1
	if backoff > 4 {
		backoff = 4
	}
	timeout := model.MigrationChunkTimeout << uint(backoff)
	ch.watchdog = ch.cl.Eng.After(timeout, "cluster:mig:watchdog", ch.onTimeout)
}

func (ch *FabricChannel) onTimeout() {
	if ch.done == nil || ch.closed {
		return
	}
	if ch.attempts >= model.MigrationChunkAttempts {
		ch.aborts.Inc()
		d := ch.done
		ch.done = nil
		d(fmt.Errorf("cluster: migration chunk lost %d times (%v→%v); aborting",
			ch.attempts, ch.src.Name, ch.dst.Name))
		return
	}
	ch.retries.Inc()
	ch.transmit()
}

// onRx is the target endpoint: cumulative byte counting stands in for
// sequencing (chunks are sent stop-and-wait, so arrival order is sender
// order; a duplicate from a retransmit race only over-delivers). The
// target's dom0 pays the per-page receive cost on the same meter its
// foreground guests compete for.
func (ch *FabricChannel) onRx(b nic.Batch) {
	if ch.closed {
		return
	}
	ch.rx += b.Bytes
	ch.rxBytes.Add(int64(b.Bytes))
	pages := uint64(b.Bytes >> mem.PageShift)
	ch.dst.Bed.HV.ChargeDom0(units.Cycles(pages * model.MigrationPerPageDom0Cycles))
	if ch.done != nil && ch.rx >= ch.target {
		ch.watchdog.Cancel()
		ch.chunks.Inc()
		ch.remaining -= ch.cur
		ch.nextChunk()
	}
}

// close tears the channel down: the watchdog dies and the target endpoint
// stops counting.
func (ch *FabricChannel) close() {
	if ch.closed {
		return
	}
	ch.closed = true
	ch.watchdog.Cancel()
	delete(ch.dst.sinks, ch.dstCtl)
}
