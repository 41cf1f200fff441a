package amoebot

import (
	"sops/internal/core"
	"sops/internal/lattice"
	"sops/internal/psys"
	"sops/internal/rng"
)

// This file is the strictly local, anonymous formulation of the
// distributed algorithm: the agent program reads its surroundings
// exclusively through a LocalView addressed by private port labels, so it
// cannot observe global coordinates, a shared compass, or particle
// identities — exactly the informational constraints of the amoebot model
// (§2.1). It packs the pair neighborhood in its own private frame and
// decides at its private direction through the same core.Rule as
// Activate. The rule's tables are rotation-covariant (validity, exponents
// and color counts are unchanged when a gather is rotated with its
// direction), so the private frame decides exactly what the global frame
// would; tests verify the two produce identical executions.

// Port is an edge label in a particle's private orientation: port p of a
// particle with orientation rot refers to global direction (p + rot) mod 6.
// Particles never learn rot, so ports carry no global directional
// information.
type Port int

// LocalView exposes exactly what one atomic activation may read: the
// occupancy and colors of the particle's own six neighbor cells and, after
// choosing a movement port, the six cells around the corresponding target
// node. All addressing is relative to the particle's private orientation.
// The view is only valid during the activation that created it (the region
// locks are held).
type LocalView struct {
	w   *World
	pos lattice.Point
	rot lattice.Direction
}

// globalDir translates a private port to a global direction.
func (v *LocalView) globalDir(p Port) lattice.Direction {
	return lattice.Direction((int(p) + int(v.rot)) % lattice.NumDirections)
}

// OwnColor returns the activating particle's color.
func (v *LocalView) OwnColor() psys.Color {
	return v.w.cellAt(v.pos).color
}

// TargetInArena reports whether the node behind the given port exists in
// the bounded arena (a wall sensor; physical systems are bounded).
func (v *LocalView) TargetInArena(p Port) bool {
	return v.w.inArena(v.pos.Neighbor(v.globalDir(p)))
}

// NeighborColor returns the color of the neighbor at the given port; ok is
// false if the cell is vacant.
func (v *LocalView) NeighborColor(p Port) (psys.Color, bool) {
	return v.w.colorAt(v.pos.Neighbor(v.globalDir(p)))
}

// TargetNeighborColor returns the color of the target's j-th neighbor. The
// activating particle's own cell reports its own color.
func (v *LocalView) TargetNeighborColor(move, j Port) (psys.Color, bool) {
	return v.w.colorAt(v.pos.Neighbor(v.globalDir(move)).Neighbor(v.globalDir(j)))
}

// at reads private-frame cell q of an activation moving through port
// move: the own node is the origin, port p points along lattice direction
// p, and q is the origin or a neighbor of the origin or of the target —
// the cells of a pair gather. Every read goes through the port-addressed
// view.
func (v *LocalView) at(move Port, q lattice.Point) (psys.Color, bool) {
	origin := lattice.Point{}
	if q == origin {
		return v.OwnColor(), true
	}
	if p, ok := origin.DirectionTo(q); ok {
		return v.NeighborColor(Port(p))
	}
	j, _ := origin.Neighbor(lattice.Direction(move)).DirectionTo(q)
	return v.TargetNeighborColor(move, Port(j))
}

// runAgent is the agent program for Algorithm 1: a function of the local
// view, the model's rule and the activation's randomness. It draws a
// movement port, packs the pair neighborhood into g in its private frame
// and decides at its private direction. It never touches the world
// directly.
func runAgent(v *LocalView, rule *core.Rule, g *psys.PairGather, dE []int8, r *rng.Buffered) (core.Outcome, Port) {
	move := Port(r.Intn(lattice.NumDirections))
	if !v.TargetInArena(move) {
		return core.Rejected, move
	}
	*g = psys.GatherPairFrom(func(q lattice.Point) (psys.Color, bool) { return v.at(move, q) },
		lattice.Point{}, lattice.Direction(move))
	return rule.Decide(g, dE, r), move
}

// ActivateAgent performs one atomic activation of particle id through the
// strictly local agent program. It is behaviorally identical to Activate
// (tests assert exact execution equality when orientations are trivial)
// but structurally guarantees locality: the decision logic sees the world
// only through LocalView.
func (w *World) ActivateAgent(id int, r *rng.Buffered) core.Outcome {
	p := w.parts[id]
	if p.frozen.Load() {
		return core.Rejected
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	w.global.RLock()
	defer w.global.RUnlock()

	// The agent draws its port inside its program, so lock every pair
	// region it could choose: the 19 cells within distance 2 of l.
	l := p.pos
	var rg region
	rg.add(l)
	for d := lattice.Direction(0); d < lattice.NumDirections; d++ {
		nb := l.Neighbor(d)
		rg.add(nb)
		rg.add(nb.Neighbor(d))
		rg.add(nb.Neighbor(d.Next()))
	}
	w.lock(&rg)
	defer w.unlock(&rg)

	view := &LocalView{w: w, pos: l, rot: p.orientation}
	o, port := runAgent(view, w.rule, &p.gather, p.dE, r)
	w.apply(p, o, l.Neighbor(view.globalDir(port)))
	return o
}
