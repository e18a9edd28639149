package obs

import "repro/internal/units"

// PathTrack is one packet path's set of per-hop latency histograms. The
// stamped points are the §5 critical path: TX doorbell (the sender hands
// the batch to the NIC), DMA complete (descriptor-ring insert after L2
// classification), interrupt fire (post-EITR throttle), and guest-driver
// drain (NAPI poll). The NIC registers one track per queue
// ("path.<queue>.*") and the VF driver one per VM ("path.vm.<domain>.*").
//
// All methods are safe on a nil receiver, so untracked queues cost one
// branch per hop.
type PathTrack struct {
	doorbellToDMA  *Hist
	dmaToIntr      *Hist
	doorbellToIntr *Hist
	intrToDrain    *Hist
}

// Hop histogram name suffixes, appended to the track prefix.
const (
	HopDoorbellToDMA  = "doorbell_to_dma"
	HopDMAToIntr      = "dma_to_intr"
	HopDoorbellToIntr = "doorbell_to_intr"
	HopIntrToDrain    = "intr_to_drain"
)

// NewPathTrack registers the four hop histograms under prefix ("path.eth0/vf0"
// → "path.eth0/vf0.doorbell_to_dma" …). A nil registry yields a nil track.
func NewPathTrack(r *Registry, prefix string) *PathTrack {
	if r == nil {
		return nil
	}
	return &PathTrack{
		doorbellToDMA:  r.Histogram(prefix + "." + HopDoorbellToDMA),
		dmaToIntr:      r.Histogram(prefix + "." + HopDMAToIntr),
		doorbellToIntr: r.Histogram(prefix + "." + HopDoorbellToIntr),
		intrToDrain:    r.Histogram(prefix + "." + HopIntrToDrain),
	}
}

// ObserveDoorbellToDMA records n packets' doorbell→DMA-complete delta.
func (t *PathTrack) ObserveDoorbellToDMA(d units.Duration, n int64) {
	if t == nil {
		return
	}
	t.doorbellToDMA.ObserveN(d, n)
}

// ObserveDMAToIntr records n packets' DMA-complete→interrupt delta (the
// EITR throttle wait).
func (t *PathTrack) ObserveDMAToIntr(d units.Duration, n int64) {
	if t == nil {
		return
	}
	t.dmaToIntr.ObserveN(d, n)
}

// ObserveDoorbellToIntr records n packets' end-to-end doorbell→interrupt
// delta.
func (t *PathTrack) ObserveDoorbellToIntr(d units.Duration, n int64) {
	if t == nil {
		return
	}
	t.doorbellToIntr.ObserveN(d, n)
}

// ObserveIntrToDrain records n packets' interrupt→guest-drain delta.
func (t *PathTrack) ObserveIntrToDrain(d units.Duration, n int64) {
	if t == nil {
		return
	}
	t.intrToDrain.ObserveN(d, n)
}
