package tenant

import "rebudget/internal/core"

const eps = 1e-9

// Rebalance runs one tenant-economy epoch:
//
//  1. Demand aggregates bottom-up; entitlements (deserved) split
//     top-down by share.
//  2. Per sibling group, targets are water-filled from the parent's
//     actual grant: every child first gets min(demand, slice); the idle
//     headroom is lent to over-slice demand by over-quota weight; what
//     nobody wants is parked back on its owners so an idle tenant keeps
//     its slice until someone needs it (no churn, no phantom "lending").
//  3. Granted moves toward target with bounded steps: raises are
//     immediate but only spend budget the same epoch freed; cuts follow a
//     core.CutSchedule opened at half the gap (ReBudget §4.2 — halving
//     back-off, terminate below core.MinStepFraction of the tenant's
//     deserved budget, then snap the residual so reclaim completes). The
//     MBR floor is restored unconditionally: a demanding tenant is raised
//     to floor × slice the same epoch, funded beyond the schedule from
//     cutters' remaining headroom — always feasible because every
//     guarantee is ≤ its target and Σ targets ≤ the parent's grant.
//
// The invariants the property tests pin: Σ sibling grants never exceeds
// the parent's grant, and every tenant's grant is ≥ min(demand,
// floor × slice) on every epoch — the tenant-level Theorem 2.
func (t *Tree) Rebalance() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.epochs++
	t.aggregate(t.root)
	t.root.deserved = t.cfg.Capacity
	t.root.slice = t.cfg.Capacity
	t.root.target = t.cfg.Capacity
	t.root.granted = t.cfg.Capacity
	t.deserve(t.root)
	t.settle(t.root)
}

// aggregate rolls demand up the tree: a node's aggregate is its own
// demand (leaves only) plus its subtree's.
func (t *Tree) aggregate(n *node) float64 {
	n.agg = n.demand
	for _, c := range n.children {
		n.agg += t.aggregate(c)
	}
	return n.agg
}

// deserve splits each node's entitlement among its children by share —
// the static quota lending deviates from and reclaim restores.
func (t *Tree) deserve(n *node) {
	sum := 0.0
	for _, c := range n.children {
		sum += c.share
	}
	for _, c := range n.children {
		c.deserved = n.deserved * c.share / sum
		t.deserve(c)
	}
}

// guarantee is what the node may claim unconditionally this epoch: its
// MBR floor of its current slice, capped by what it actually wants.
func (n *node) guarantee() float64 {
	g := n.floor * n.slice
	if n.agg < g {
		return n.agg
	}
	return g
}

// settle distributes n's grant among its children (targets, then bounded
// movement), commits, and recurses. n.granted is final on entry.
func (t *Tree) settle(n *node) {
	if n.parent != nil {
		if l := n.deserved - n.granted; l > eps {
			n.lentTotal += l
		}
	}
	kids := n.children
	if len(kids) == 0 {
		return
	}
	avail := n.granted
	sumShare := 0.0
	for _, c := range kids {
		sumShare += c.share
	}
	for _, c := range kids {
		c.slice = avail * c.share / sumShare
	}

	// Targets: static quotas when lending is off, water-filling otherwise.
	if t.cfg.DisableLending {
		for _, c := range kids {
			c.target = c.slice
		}
	} else {
		pool := avail
		base := make([]float64, len(kids))
		for i, c := range kids {
			base[i] = c.agg
			if base[i] > c.slice {
				base[i] = c.slice
			}
			pool -= base[i]
		}
		need := make([]float64, len(kids))
		w := make([]float64, len(kids))
		for i, c := range kids {
			if c.agg > c.slice {
				need[i] = c.agg - c.slice
				w[i] = c.oqWeight
			}
		}
		extra := waterfill(pool, need, w)
		for i := range extra {
			pool -= extra[i]
		}
		// Park what nobody demanded back on its owners, up to each slice.
		room := make([]float64, len(kids))
		for i, c := range kids {
			w[i] = 0
			if r := c.slice - base[i] - extra[i]; r > eps {
				room[i] = r
				w[i] = c.share
			} else {
				room[i] = 0
			}
		}
		back := waterfill(pool, room, w)
		for i, c := range kids {
			c.target = base[i] + extra[i] + back[i]
		}
	}

	// Bounded movement toward targets.
	newG := make([]float64, len(kids))
	sumNew := 0.0
	for i, c := range kids {
		prev := c.granted
		if c.target < prev-eps {
			// Reclaim: open (or re-arm on a widened gap) a §4.2 cut
			// schedule sized at half the gap, so the halving series spans
			// it; when the back-off runs out, snap the residual.
			gap := prev - c.target
			if c.sched == nil || gap > c.sizedGap+eps {
				minStep := core.MinStepFraction * c.deserved
				if minStep <= 0 {
					minStep = core.MinStepFraction * t.cfg.Capacity / 1e6
				}
				c.sched = core.NewCutSchedule(gap/2, minStep, false)
				c.sizedGap = gap
			}
			g := c.target
			if cut, ok := c.sched.Next(); ok {
				if pg := prev - cut; pg > g {
					g = pg
				}
			}
			if g <= c.target+eps {
				g = c.target
				c.sched, c.sizedGap = nil, 0
			}
			newG[i] = g
		} else {
			c.sched, c.sizedGap = nil, 0
			newG[i] = prev
		}
		sumNew += newG[i]
	}

	// Mandatory corrections beyond the schedule: the sibling group must
	// fit the parent's grant (the parent itself may have been cut), and
	// every demanding child is entitled to its MBR floor immediately.
	// Both are funded pro-rata from cutters' remaining headroom; feasible
	// because guarantees are ≤ targets and Σ targets ≤ avail.
	free := avail - sumNew
	needTotal := 0.0
	for i, c := range kids {
		if g := c.guarantee(); newG[i] < g-eps {
			needTotal += g - newG[i]
		}
	}
	if deficit := needTotal - free; deficit > eps {
		headroom := 0.0
		for i, c := range kids {
			if h := newG[i] - c.target; h > eps {
				headroom += h
			}
		}
		if headroom > 0 {
			scale := deficit / headroom
			if scale > 1 {
				scale = 1
			}
			for i, c := range kids {
				if h := newG[i] - c.target; h > eps {
					newG[i] -= h * scale
					if newG[i] <= c.target+eps {
						newG[i] = c.target
						c.sched, c.sizedGap = nil, 0
					}
				}
			}
		}
		free = avail
		for i := range newG {
			free -= newG[i]
		}
	}
	for i, c := range kids {
		if g := c.guarantee(); newG[i] < g-eps {
			raise := g - newG[i]
			if raise > free {
				raise = free
			}
			if raise > 0 {
				newG[i] += raise
				free -= raise
			}
		}
	}

	// The rest of the freed budget raises whoever is still below target,
	// by over-quota weight.
	wantMore := make([]float64, len(kids))
	w := make([]float64, len(kids))
	for i, c := range kids {
		if r := c.target - newG[i]; r > eps {
			wantMore[i] = r
			w[i] = c.oqWeight
		}
	}
	for i, g := range waterfill(free, wantMore, w) {
		newG[i] += g
	}

	for i, c := range kids {
		if d := c.granted - newG[i]; d > eps {
			c.reclaimedTotal += d
		}
		c.granted = newG[i]
	}
	for _, c := range kids {
		t.settle(c)
	}
}

// waterfill distributes pool among candidates proportionally to weight,
// capping each at want[i] and re-spilling the overflow. Runs at most
// len(want)+1 rounds: each round either drains the pool or saturates a
// candidate.
func waterfill(pool float64, want, weight []float64) []float64 {
	out := make([]float64, len(want))
	for round := 0; round <= len(want) && pool > eps; round++ {
		sumW := 0.0
		for i := range want {
			if want[i]-out[i] > eps && weight[i] > 0 {
				sumW += weight[i]
			}
		}
		if sumW == 0 {
			break
		}
		spill := 0.0
		for i := range want {
			if want[i]-out[i] <= eps || weight[i] <= 0 {
				continue
			}
			give := pool * weight[i] / sumW
			if room := want[i] - out[i]; give >= room {
				out[i] = want[i]
				spill += give - room
			} else {
				out[i] += give
			}
		}
		pool = spill
	}
	return out
}
