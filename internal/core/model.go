package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"sops/internal/lattice"
	"sops/internal/psys"
)

// This file defines the pluggable-dynamics substrate: a Model is a local
// Hamiltonian plus a move-validity predicate, expressed in exactly the
// shape the table-driven kernel consumes. The kernel itself (chain.go,
// sharded.go) is one table-driven path for every model — once per bound
// model it asks for the validity decision on each of the 6×256
// (direction, ring occupancy) cells, and per coupling setting it
// precomputes one integer acceptance threshold per exponent vector, so a
// step under any model is still: one gather, one table probe, a few
// popcounts, one integer compare. The paper's separation dynamics
// (Algorithm 1) is the first registered model and reproduces the
// committed golden trajectories; the alignment chain of Kedia–Oh–Randall
// and an annealed compression→separation schedule run through the same
// kernel.

// MaxModelExp bounds the magnitude of every exponent a model may return:
// DeltaExponents results must lie in [-MaxModelExp, MaxModelExp]. The
// per-proposal exponents of any pair Hamiltonian over the 8-cell ring are
// within ±10 (two ±5 popcount differences), so the bound is not a real
// restriction — it sizes the precomputed threshold tables.
const MaxModelExp = maxExp

// Coupling describes one named coupling constant of a model, in the order
// the model's exponent vector and threshold tables use.
type Coupling struct {
	// Name identifies the coupling on every wire surface (Options JSON,
	// sweep axes, CLI flags). By convention a coupling playing the role of
	// the paper's λ or γ is named "lambda" resp. "gamma", which lets the
	// legacy scalar option fields keep working for any model that has them.
	Name string
	// Default is the value used when the caller does not set the coupling.
	Default float64
	// Integer marks couplings that must hold a positive integer (schedule
	// knobs such as stage counts); they never appear as energy exponents.
	Integer bool
}

// ConfigView is the read-only occupancy interface models observe — both
// *psys.Config (serial chain) and *psys.TileStore (sharded executor)
// satisfy it, so a model's Energy and Observables run unchanged under
// either executor.
type ConfigView interface {
	N() int
	Edges() int
	HomEdges() int
	NumColors() int
	ColorCount(col psys.Color) int
	At(p lattice.Point) (psys.Color, bool)
	ForEach(f func(p lattice.Point, col psys.Color))
}

// Model is a local stochastic dynamics: a validity predicate over packed
// pair neighborhoods plus a Hamiltonian expressed as integer exponents
// over named coupling constants. A proposal with exponent vector dE is
// accepted by a Metropolis filter on Π_i coupling_i^dE_i; the kernel
// precomputes that product's integer acceptance threshold for every
// exponent vector at init, so implementations are consulted per step only
// for the (cheap, popcount-shaped) exponent extraction.
//
// Implementations must be deterministic pure functions of their inputs
// and safe for concurrent use — the sharded executor calls them from P
// workers. Exponents must lie within ±MaxModelExp. Bound model values
// must be comparable: they key the validity tables every executor of the
// same bound model shares.
type Model interface {
	// Name is the registry key and the wire-format model tag.
	Name() string
	// Couplings lists the model's coupling constants in exponent order.
	// The first NumExponents entries are the energy couplings; any
	// remaining entries are non-energy knobs (schedules etc.).
	Couplings() []Coupling
	// NumExponents is the length of the exponent vectors MoveExponents
	// and SwapExponents fill: the number of leading energy couplings.
	NumExponents() int
	// Valid reports whether a move proposal in direction dir with ring
	// occupancy mask occ (target vacant) is permitted. It is consulted
	// only at table-build time — per step the decision is a table probe.
	Valid(dir lattice.Direction, occ uint8) bool
	// MoveExponents fills dE (length NumExponents) with the Metropolis
	// exponents of a move proposal. Called only when the move is Valid.
	MoveExponents(g *psys.PairGather, dE []int8)
	// SwapExponents fills dE with the exponents of a swap proposal, or
	// returns false when the model does not permit the swap at all.
	//
	// For a same-coloured pair (l and lp hold one colour) the result must
	// not depend on the ring, the colour or the direction: it must equal
	// the result on the canonical gather where l and lp hold colour 0 and
	// the ring is empty. Such a swap is the identity, so it is always
	// reported Rejected; the rule asks the model once per coupling
	// setting, on that canonical gather, whether its filter spends a draw,
	// and decides every same-coloured pair from its two end cells without
	// calling SwapExponents. A model that broke the contract would still
	// sample its distribution (the swap changes nothing whichever way the
	// filter goes) but would consume different draws than a full
	// evaluation of each proposal.
	SwapExponents(g *psys.PairGather, dE []int8) bool
	// Energy is the Hamiltonian value of a full configuration under the
	// given energy-coupling values (length ≥ NumExponents); the chain's
	// stationary distribution is π(σ) ∝ exp(−Energy(σ)).
	Energy(v ConfigView, coup []float64) float64
}

// Binder is implemented by models that specialize to a configuration at
// chain construction — e.g. reading its color count to fix the
// orientation modulus. The executors call Bind once with the
// configuration's color count and use the returned instance; the registry
// holds the unbound prototype.
type Binder interface {
	Bind(numColors int) Model
}

// Scheduler is implemented by models whose effective energy couplings
// change over the run (annealed schedules). Effective must be a pure
// function of the nominal couplings and the absolute step count — that is
// what makes schedules checkpoint-exact: a resumed chain recomputes the
// identical effective couplings from its restored step counter, with no
// separate schedule state to serialize.
type Scheduler interface {
	// Effective fills eff (length NumExponents) with the energy-coupling
	// values in force at the given absolute step, reading nominal values
	// from coup (the full coupling vector), and returns the first step
	// strictly greater than step at which the effective values change
	// next — math.MaxUint64 when they never change again.
	Effective(coup []float64, step uint64, eff []float64) (next uint64)
}

// Observables is implemented by models that export per-model order
// parameters through the telemetry funnel.
type Observables interface {
	// ObservableNames lists the observables, fixed per model.
	ObservableNames() []string
	// Observe fills out (length len(ObservableNames())) with the current
	// values over v under energy couplings coup.
	Observe(v ConfigView, coup []float64, out []float64)
}

// ErrUnknownModel reports a model name absent from the registry — e.g. a
// wire document or flag naming a model this build does not ship.
var ErrUnknownModel = errors.New("core: unknown model")

// ErrBadCoupling reports a coupling value or name a model rejects.
var ErrBadCoupling = errors.New("core: bad coupling")

var (
	modelMu  sync.RWMutex
	modelReg = map[string]Model{}
)

// RegisterModel adds m to the model registry under m.Name(). It panics on
// a duplicate or empty name, or on a model whose shape the kernel cannot
// table-drive — registration is an init-time act.
func RegisterModel(m Model) {
	name := m.Name()
	k := m.NumExponents()
	if name == "" {
		panic("core: RegisterModel with empty name")
	}
	if k < 1 || k > len(m.Couplings()) {
		panic(fmt.Sprintf("core: model %q has %d exponents over %d couplings", name, k, len(m.Couplings())))
	}
	seen := map[string]bool{}
	for _, c := range m.Couplings() {
		if c.Name == "" || seen[c.Name] {
			panic(fmt.Sprintf("core: model %q has duplicate or empty coupling name %q", name, c.Name))
		}
		seen[c.Name] = true
	}
	modelMu.Lock()
	defer modelMu.Unlock()
	if _, dup := modelReg[name]; dup {
		panic(fmt.Sprintf("core: model %q registered twice", name))
	}
	modelReg[name] = m
}

// LookupModel resolves a model name. The empty string is the paper's
// separation dynamics — wire documents from before the model registry
// carry no model field and decode to it. Unknown names are rejected with
// an error wrapping ErrUnknownModel.
func LookupModel(name string) (Model, error) {
	if name == "" {
		name = "separation"
	}
	modelMu.RLock()
	m, ok := modelReg[name]
	modelMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownModel, name, ModelNames())
	}
	return m, nil
}

// ModelNames returns the registered model names, sorted.
func ModelNames() []string {
	modelMu.RLock()
	names := make([]string, 0, len(modelReg))
	for name := range modelReg {
		names = append(names, name)
	}
	modelMu.RUnlock()
	sort.Strings(names)
	return names
}

// ValidateCouplings checks a full coupling vector against the model's
// declared couplings: every value finite and positive, Integer couplings
// integral and ≥ 1. Errors wrap ErrBadCoupling and name the coupling.
func ValidateCouplings(m Model, coup []float64) error {
	cs := m.Couplings()
	if len(coup) != len(cs) {
		return fmt.Errorf("%w: model %q takes %d couplings, got %d", ErrBadCoupling, m.Name(), len(cs), len(coup))
	}
	for i, c := range cs {
		v := coup[i]
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("%w: %s %v must be positive and finite", ErrBadCoupling, c.Name, v)
		}
		if c.Integer && (v != math.Trunc(v) || v < 1) {
			return fmt.Errorf("%w: %s %v must be a positive integer", ErrBadCoupling, c.Name, v)
		}
	}
	return nil
}

// DefaultCouplings returns the model's coupling vector at declared
// defaults.
func DefaultCouplings(m Model) []float64 {
	cs := m.Couplings()
	coup := make([]float64, len(cs))
	for i, c := range cs {
		coup[i] = c.Default
	}
	return coup
}

// CouplingIndex returns the position of the named coupling in m's vector,
// or -1.
func CouplingIndex(m Model, name string) int {
	for i, c := range m.Couplings() {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// BindModel is the construction step every executor shares. It binds m
// to the configuration's color count (nil selects Separation), copies
// coup or takes the model's defaults, validates the couplings, and sets
// params.Lambda/Gamma from the couplings of those names so surfaces
// reading Params stay meaningful. The couplings are validated before they
// are read, so a vector of the wrong length fails with ErrBadCoupling.
func BindModel(m Model, numColors int, params Params, coup []float64) (Model, Params, []float64, error) {
	if m == nil {
		m = Separation
	}
	if b, ok := m.(Binder); ok {
		m = b.Bind(numColors)
	}
	if coup == nil {
		coup = DefaultCouplings(m)
	} else {
		coup = append([]float64(nil), coup...)
	}
	if err := ValidateCouplings(m, coup); err != nil {
		return nil, params, nil, err
	}
	params.Lambda, params.Gamma = lambdaGamma(m, coup)
	return m, params, coup, nil
}

// lambdaGamma returns the couplings of m named "lambda" and "gamma", 1
// for a model that declares none.
func lambdaGamma(m Model, coup []float64) (lambda, gamma float64) {
	lambda, gamma = 1, 1
	if i := CouplingIndex(m, "lambda"); i >= 0 {
		lambda = coup[i]
	}
	if i := CouplingIndex(m, "gamma"); i >= 0 {
		gamma = coup[i]
	}
	return lambda, gamma
}

// modelTables holds a bound model's per-direction validity table and a
// flat integer acceptance-threshold table over its full exponent-vector
// space. The validity table depends only on the model, so every rule for
// an equal bound model shares one (validityOf); the thresholds follow the
// effective couplings and are recomputed at init and at schedule
// boundaries (retune). Each Rule holds one, which concurrent executors
// share read-only.
type modelTables struct {
	// moveOK[d][m] caches model.Valid(d, m).
	moveOK *validityTable

	// thresh[flat(dE)] encodes min(1, Π_i eff_i^dE_i) as the integer
	// acceptance threshold; len(thresh) = expDim^k for k exponents. Moves
	// and swaps share the table — they differ only in which exponents are
	// nonzero.
	thresh []uint64
}

// validityTable is a bound model's Valid decision on every (direction,
// ring occupancy) cell.
type validityTable [lattice.NumDirections][1 << 8]bool

// validityTables holds the validity table of every bound model built so
// far, keyed by the model value. Bound models are small values (a color
// count at most), so the set stays as small as the set of models run, and
// a table is a pure function of its key, so sharing one changes no
// decision.
var validityTables sync.Map // Model → *validityTable

// validityOf returns the shared validity table of bound model m, building
// it through Model.Valid on first use.
func validityOf(m Model) *validityTable {
	if v, ok := validityTables.Load(m); ok {
		return v.(*validityTable)
	}
	v, _ := validityTables.LoadOrStore(m, buildValidity(m))
	return v.(*validityTable)
}

// buildValidity asks m for its decision on each of the 6×256 cells.
func buildValidity(m Model) *validityTable {
	t := new(validityTable)
	for d := lattice.Direction(0); d < lattice.NumDirections; d++ {
		for occ := 0; occ < 1<<8; occ++ {
			t[d][occ] = m.Valid(d, uint8(occ))
		}
	}
	return t
}

// expDim is the per-exponent index range of the threshold table.
const expDim = 2*maxExp + 1

// retune recomputes the threshold table at effective energy couplings
// eff, one per exponent. The per-vector probability product is formed
// right to left from a 1.0 accumulator, so for the separation model
// (eff = [λ, γ]) the float64 value is exactly the seed implementation's
// λ^a·γ^b and every acceptance decision is bit-identical to it. The table
// is filled row by row in flat's order: the last exponent varies along a
// row, and an odometer over the other exponents' digits steps from row to
// row, which keeps the loop free of divisions.
func (t *modelTables) retune(eff []float64) {
	k := len(eff)
	pow := make([]float64, k*expDim) // pow[i·expDim + e + maxExp] = eff_i^e
	size := 1
	for i := 0; i < k; i++ {
		for e := -maxExp; e <= maxExp; e++ {
			pow[i*expDim+e+maxExp] = math.Pow(eff[i], float64(e))
		}
		size *= expDim
	}
	if cap(t.thresh) < size {
		t.thresh = make([]uint64, size)
	}
	t.thresh = t.thresh[:size]
	digit := make([]int, k) // digit[i] = dE_i + maxExp for i < k−1
	last := pow[(k-1)*expDim:]
	for row := 0; row < size; row += expDim {
		for j, prob := range last {
			for i := k - 2; i >= 0; i-- {
				prob *= pow[i*expDim+digit[i]]
			}
			t.thresh[row+j] = acceptThreshold(prob)
		}
		for i := k - 2; i >= 0; i-- {
			if digit[i]++; digit[i] < expDim {
				break
			}
			digit[i] = 0
		}
	}
}

// flat maps an exponent vector to its threshold-table index, most
// significant exponent first: Σ_i (dE_i + maxExp)·expDim^(k−1−i). A vector
// outside ±maxExp panics on the table probe — a loud failure for a model
// violating the MaxModelExp contract, never a silent wrong threshold.
func (t *modelTables) flat(dE []int8) int {
	idx := 0
	for _, e := range dE {
		idx = idx*expDim + int(e) + maxExp
	}
	return idx
}
