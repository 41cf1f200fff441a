package amoebot

import (
	"sops/internal/core"
	"sops/internal/lattice"
	"sops/internal/psys"
	"sops/internal/rng"
)

// colorAt reads arena cell p: cells outside the arena are permanently
// vacant. It must only be queried for cells covered by the activation's
// region locks.
func (w *World) colorAt(p lattice.Point) (psys.Color, bool) {
	if !w.inArena(p) {
		return 0, false
	}
	c := w.cellAt(p)
	return c.color, c.occupied
}

// Activate performs one atomic activation of particle id, driven by the
// caller's random source: the distributed translation of one iteration of
// Algorithm 1. It draws a direction, gathers the pair neighborhood under
// the region locks and decides through the bound model's rule, which
// takes an acceptance draw only below the no-draw sentinel — the draws
// core.Chain.Step makes after choosing its particle. It is safe to call
// concurrently for any particles; the runtime serializes conflicting
// activations.
func (w *World) Activate(id int, r *rng.Buffered) core.Outcome {
	p := w.parts[id]
	if p.frozen.Load() {
		return core.Rejected // crash-stopped: activation is a no-op
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	w.global.RLock()
	defer w.global.RUnlock()

	l := p.pos
	dir := lattice.Direction(r.Intn(lattice.NumDirections))
	lp := l.Neighbor(dir)
	if !w.inArena(lp) {
		return core.Rejected
	}
	var rg region
	for _, c := range psys.PairCells(l, dir) {
		rg.add(c)
	}
	w.lock(&rg)
	defer w.unlock(&rg)
	if f := w.lockDelay.Load(); f != nil {
		// Fault-injection stall: hold the region locks longer so that
		// conflicting activations contend on adverse schedules.
		(*f)()
	}

	p.gather = psys.GatherPairFrom(w.colorAt, l, dir)
	o := w.rule.Decide(&p.gather, p.dE, r)
	w.apply(p, o, lp)
	return o
}

// apply commits particle p's decided outcome toward lp under the region
// locks. A swap exchanges the colors stored in the two cells (footnote 2
// of the paper: in domains where physical swaps are unrealistic, colors
// are in-memory attributes exchanged by neighbors); both particles stay.
func (w *World) apply(p *Particle, o core.Outcome, lp lattice.Point) {
	if o == core.Rejected {
		return
	}
	self, target := w.cellAt(p.pos), w.cellAt(lp)
	if o == core.Swapped {
		self.color, target.color = target.color, self.color
		return
	}
	*target = cell{occupied: true, color: self.color, particle: p.id}
	self.occupied = false
	p.pos = lp
}

// region is the ascending, deduplicated set of lock stripes covering an
// activation's cells — at most the 19 cells within distance 2 of the
// activating particle. Acquiring stripes in ascending order rules out
// deadlock between overlapping activations.
type region struct {
	stripes [19]int
	n       int
}

// add includes the stripe of cell p.
func (rg *region) add(p lattice.Point) {
	s := stripeOf(p)
	for _, t := range rg.stripes[:rg.n] {
		if t == s {
			return
		}
	}
	i := rg.n
	for ; i > 0 && rg.stripes[i-1] > s; i-- {
		rg.stripes[i] = rg.stripes[i-1]
	}
	rg.stripes[i] = s
	rg.n++
}

func (w *World) lock(rg *region) {
	for _, s := range rg.stripes[:rg.n] {
		w.stripes[s].Lock()
	}
}

func (w *World) unlock(rg *region) {
	for i := rg.n - 1; i >= 0; i-- {
		w.stripes[rg.stripes[i]].Unlock()
	}
}
