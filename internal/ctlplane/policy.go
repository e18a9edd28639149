package ctlplane

import (
	"fmt"
	"sort"

	"repro/internal/units"
)

// FleetState is the placement snapshot a Policy plans against. Slices are
// index-ordered (hosts by cluster index, VMs by registration order), so a
// policy that walks them without extra randomness plans deterministically.
type FleetState struct {
	Hosts []HostState
	VMs   []VMState
}

// HostState is one host's capacity summary.
type HostState struct {
	// Free counts unclaimed VF slots the controller could still place on.
	Free int
	// VMs counts managed VMs currently placed here.
	VMs int
	// Load sums the nominal offered rate of the VMs placed here.
	Load units.BitRate
	// Cap is the host's nominal ingress capacity (ports × line rate).
	Cap units.BitRate
}

// VMState is one managed VM's placement summary.
type VMState struct {
	Host  int
	Group string // failure-domain / anti-affinity group ("" = none)
	Rate  units.BitRate
	// Movable is false while the VM is mid-migration or degraded (no bond),
	// so a policy never plans a second move for it.
	Movable bool
}

// Move asks the controller to migrate VMs[VM] to host To.
type Move struct {
	VM int
	To int
}

// Policy plans placement changes on each reconcile tick. Plan must be a
// pure function of the state: same snapshot, same moves, in the same order
// — the determinism story of the whole control plane rests on it. The
// controller executes a budgeted prefix of the returned moves.
type Policy interface {
	Name() string
	Plan(s *FleetState) []Move
}

// ParsePolicy maps a policy name to its implementation: "binpack" packs the
// fleet onto as few hosts as fit, "spread" balances VM count across hosts.
// "static" (and "") return nil — a controller without a rebalancing policy,
// which never moves anything (heal-only control planes and frozen
// baselines).
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "binpack":
		return BinPack{}, nil
	case "spread":
		return Spread{}, nil
	case "static", "":
		return nil, nil
	}
	return nil, fmt.Errorf("ctlplane: unknown policy %q (valid: binpack, spread, static)", name)
}

// groupConflict reports whether placing vm on host would co-locate two VMs
// of the same anti-affinity group.
func groupConflict(s *FleetState, vm, host int) bool {
	g := s.VMs[vm].Group
	if g == "" {
		return false
	}
	for i, o := range s.VMs {
		if i != vm && o.Host == host && o.Group == g {
			return true
		}
	}
	return false
}

// fits reports whether host can take vm: a free slot, capacity for its
// rate, and no anti-affinity conflict.
func fits(s *FleetState, vm, host int) bool {
	h := s.Hosts[host]
	return h.Free > 0 && h.Load+s.VMs[vm].Rate <= h.Cap && !groupConflict(s, vm, host)
}

// applyMove updates the snapshot so subsequent planning sees the pending
// placement instead of re-planning the same move.
func applyMove(s *FleetState, m Move) {
	from := s.VMs[m.VM].Host
	s.Hosts[from].VMs--
	s.Hosts[from].Load -= s.VMs[m.VM].Rate
	s.Hosts[from].Free++
	s.Hosts[m.To].VMs++
	s.Hosts[m.To].Load += s.VMs[m.VM].Rate
	s.Hosts[m.To].Free--
	s.VMs[m.VM].Host = m.To
	s.VMs[m.VM].Movable = false
}

// repairAffinity plans moves resolving anti-affinity violations: for every
// pair of same-group VMs sharing a host, the later-registered one moves to
// the first host that fits it. Both policies run this before their own
// objective — a placement that violates failure-domain constraints is wrong
// regardless of packing goals.
func repairAffinity(s *FleetState) []Move {
	var moves []Move
	for i := range s.VMs {
		if !s.VMs[i].Movable || !groupConflict(s, i, s.VMs[i].Host) {
			continue
		}
		for h := range s.Hosts {
			if h == s.VMs[i].Host || !fits(s, i, h) {
				continue
			}
			m := Move{VM: i, To: h}
			moves = append(moves, m)
			applyMove(s, m)
			break
		}
	}
	return moves
}

// BinPack consolidates: it moves VMs from the least-populated hosts onto
// the most-populated host that still fits them, emptying hosts so the fleet
// occupies as few as possible.
type BinPack struct{}

// Name implements Policy.
func (BinPack) Name() string { return "binpack" }

// Plan implements Policy.
func (BinPack) Plan(s *FleetState) []Move {
	moves := repairAffinity(s)
	for {
		// Donor: the non-empty host with the fewest VMs (highest index on
		// ties, so the fleet drains toward low indices).
		donor := -1
		for h := range s.Hosts {
			if s.Hosts[h].VMs == 0 {
				continue
			}
			if donor < 0 || s.Hosts[h].VMs <= s.Hosts[donor].VMs {
				donor = h
			}
		}
		if donor < 0 {
			return moves
		}
		// Move each of the donor's VMs to the fullest other host that fits
		// it. If nothing moves, packing has converged.
		progressed := false
		for i := range s.VMs {
			if s.VMs[i].Host != donor || !s.VMs[i].Movable {
				continue
			}
			best := -1
			for h := range s.Hosts {
				if h == donor || !fits(s, i, h) {
					continue
				}
				// Prefer fuller hosts; require strictly more VMs than the
				// donor so two half-empty hosts don't swap forever.
				if s.Hosts[h].VMs <= s.Hosts[donor].VMs {
					continue
				}
				if best < 0 || s.Hosts[h].VMs > s.Hosts[best].VMs ||
					(s.Hosts[h].VMs == s.Hosts[best].VMs && h < best) {
					best = h
				}
			}
			if best < 0 {
				continue
			}
			m := Move{VM: i, To: best}
			moves = append(moves, m)
			applyMove(s, m)
			progressed = true
		}
		if !progressed {
			return moves
		}
	}
}

// Spread balances VM count across hosts: while some host holds two more
// VMs than another, one VM moves from the fullest to the emptiest host that
// fits it. Higher-rate VMs move first, so load skew shrinks along with the
// count imbalance.
type Spread struct{}

// Name implements Policy.
func (Spread) Name() string { return "spread" }

// Plan implements Policy.
func (Spread) Plan(s *FleetState) []Move {
	moves := repairAffinity(s)
	for {
		hi, lo := 0, 0
		for h := range s.Hosts {
			if s.Hosts[h].VMs > s.Hosts[hi].VMs {
				hi = h
			}
			if s.Hosts[h].VMs < s.Hosts[lo].VMs {
				lo = h
			}
		}
		if s.Hosts[hi].VMs-s.Hosts[lo].VMs < 2 {
			return moves
		}
		// Candidates on the fullest host, heaviest first (stable order:
		// rate desc, then registration order).
		var cand []int
		for i := range s.VMs {
			if s.VMs[i].Host == hi && s.VMs[i].Movable {
				cand = append(cand, i)
			}
		}
		sort.SliceStable(cand, func(a, b int) bool { return s.VMs[cand[a]].Rate > s.VMs[cand[b]].Rate })
		moved := false
		for _, i := range cand {
			if !fits(s, i, lo) {
				continue
			}
			m := Move{VM: i, To: lo}
			moves = append(moves, m)
			applyMove(s, m)
			moved = true
			break
		}
		if !moved {
			return moves
		}
	}
}
