// Package fleet batch-simulates fleets of independent small switches.
//
// The competitive-ratio harness (internal/ratio) and the adversary
// restarts validate the paper's claims by Monte-Carlo estimation: many
// seeded runs of *small* switches under the same configuration and policy
// family. Throughput there is governed by aggregate switch-slot updates
// per second across the fleet, not by single-switch latency — exactly the
// regime a batched engine wins.
//
// # Columnar layout
//
// A fleet holds B instances of one geometry in struct-of-arrays form:
// every piece of per-switch state becomes a flat lane indexed by
// instance. Occupancy rows are spans of uint64 words — wn words for an
// input-indexed row, wm for an output-indexed one, fixed at construction
// from the geometry (voq[(k*n+i)*wm+w] is word w of instance k's
// non-empty-VOQ row for input i) — queue contents are flat power-of-two
// rings of (value, arrival) pairs — plus a parallel ID lane in the
// weighted family, where rings are kept in ByValue order and admissions
// and transfers may preempt the ring minimum — and the per-slot metric
// accumulators (sent, benefit, occupancy integrals, ...) are []int64
// lanes. The per-slot loop therefore touches dense arrays with no pointer
// chasing, no interface dispatch per queue operation, and no allocation —
// the zero-allocs-per-batched-slot invariant is pinned by alloc_test.go
// for the unit and weighted kernels at one-word and multi-word widths.
//
// One layout serves every width from 1 to 512 ports. The CIOQ and
// crossbar fleets share one engine (admission, pass-through delivery,
// transmission, quiescent jumps, retirement) and differ only in their
// crosspoint lanes and kernels; each policy family has one kernel over
// the span view. When every row is a single word (both sides ≤ 64
// ports), chosen from the geometry at construction, the rotated row
// searches of GM, RoundRobin and CGU and the greedy accept of PG keep
// their masks in registers instead of calling the multi-word span
// helpers; results are the same either way. Each of these one-word paths
// is kept because forcing it off measurably slows its one-word benchmark
// shape; everything else runs the span code at every width.
//
// # Lockstep windows and the active list
//
// All live instances advance through the same global slot clock in
// bounded windows: each Step visits every instance on the dense active
// list once and simulates its share of the window slot by slot —
// admissions from the instance's own arrival sequence, Speedup scheduling
// cycles of the batched policy kernel, transmission, and the end-of-slot
// occupancy sample — so an instance's working set is pulled into cache
// once per window instead of once per slot. An instance whose input side
// empties is quiescent — its remaining backlog drains
// policy-independently — so its drain is accumulated in closed form
// (mirroring the scalar engines' quiesce), and if the stretch crosses the
// window boundary it leaves the active list via a swap-remove and sleeps
// on a wake heap until its next arrival, rejoining the dense set then.
// When every instance sleeps the clock jumps straight to the earliest
// wake slot. Instances retire as they reach their own horizon; Step
// returns false once the fleet drains. Results are independent of the
// window length — instances never read each other's state.
//
// # Kernels and bit-identical semantics
//
// A kernel is the batched counterpart of a scalar policy. Two families
// are ported. The unit family is the policies whose admission rule is
// "accept iff the input queue has room" and whose quiescent-state
// evolution is either frozen (RoundRobin pointers, NaiveFIFO) or
// derivable from the slot clock (GM and CGU rotating-scan ticks). The
// weighted family adds the preemptive disciplines: ByValue rings,
// preempt-the-minimum admission, preemptive transfers and weighted
// matchings (greedy for PG/CPG, Hungarian for KRMWM), whose quiescent
// drains are value-ordered but still policy-independent.
//
// Coverage matrix (policy × geometry; every ✓ is a batched kernel for
// every geometry of 1 to 512 ports per side):
//
//	policy                    CIOQ   crossbar
//	GM (all four edge orders)  ✓        —
//	RoundRobin, NaiveFIFO      ✓        —
//	PG (incl. custom beta)     ✓        —
//	KRMWM (maximum-weight)     ✓        —
//	CGU (plain and rotating)   —        ✓
//	CPG (incl. custom α/β)     —        ✓
//
// Every kernel reproduces its scalar policy's decisions exactly —
// eligibility is read from the same pre-cycle state the scalar engine
// exposes to policies — so fleet Metrics are reflect.DeepEqual to
// per-instance switchsim runs, including latency histograms and per-slot
// series. The differential suite, a fuzz target over batch size, weighted
// tie-breaks, multi-word geometries and sequence shape, and the ratio-backend
// determinism tests gate this the same way reference_test.go and
// eventdriven_test.go gated PR 1–3.
//
// Policies without a kernel (randomized GM, the FIFO-discipline
// variants, ...) and geometries beyond 512 ports fall back to
// per-instance scalar runs behind the same RunCIOQ/RunCrossbar entry
// points, so callers need not special-case batchability.
package fleet
