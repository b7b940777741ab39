package fleet

import (
	"math"
	"math/bits"

	"qswitch/internal/bitset"
	"qswitch/internal/core"
	"qswitch/internal/matching"
	"qswitch/internal/switchsim"
)

// cioqKernel is the batched counterpart of a scalar CIOQ policy's
// Schedule method. One cycle call computes the policy's matching for the
// bound instance from the columnar occupancy index and executes each
// transfer inline via view.transfer. A kernel must reproduce the scalar
// policy's decisions exactly: eligibility is read from the state the
// scalar engine would expose to the policy at the start of the cycle
// (snapshot words where interleaved execution could otherwise leak into
// later picks), and any slot-dependent state must be derivable from
// (slot, cycle) so quiescent jumps need no per-policy hook.
type cioqKernel interface {
	reset(f *CIOQFleet)
	cycle(v *cioqView, slot, cycle int)
	// wantsVOQByOut reports whether the kernel reads the transposed
	// occupancy rows; when false (and Validate is off) the engine skips
	// maintaining them, saving two index updates per packet move.
	wantsVOQByOut() bool
	// weighted reports whether the kernel's policy family uses the
	// ByValue queue discipline; the engine then allocates ID lanes and
	// switches admission and transfers to preemptive ByValue insertion.
	weighted() bool
}

// crossbarKernel is the batched counterpart of a scalar crossbar policy's
// two subphases, under the same exactness contract as cioqKernel.
type crossbarKernel interface {
	cycle(v *crossbarView, slot, cycle int)
	// weighted is as in cioqKernel.
	weighted() bool
}

// cioqKernelFor maps a scalar policy to its batched kernel, or nil when
// the policy has none (the caller then falls back to the scalar engine).
// Matching is by concrete type, so wrappers and subclasses safely miss.
func cioqKernelFor(pol switchsim.CIOQPolicy) cioqKernel {
	switch p := pol.(type) {
	case *core.GM:
		return &gmKernel{order: p.Order}
	case *core.NaiveFIFO:
		// NaiveFIFO's first-fit matching is exactly GM's row-major scan.
		return &gmKernel{order: core.RowMajor}
	case *core.RoundRobin:
		return &rrKernel{}
	case *core.PG:
		// Replicates (*core.PG).Reset's beta resolution.
		beta := p.Beta
		if beta == 0 {
			beta = core.DefaultBetaPG()
		} else if beta < 1 {
			beta = 1
		}
		return &pgKernel{beta: beta}
	case *core.KRMWM:
		// Replicates (*core.KRMWM).Reset: zero defaults to 2, and unlike
		// PG there is no >=1 clamp.
		beta := p.Beta
		if beta == 0 {
			beta = 2
		}
		return &pgKernel{beta: beta, maxWeight: true}
	}
	return nil
}

// crossbarKernelFor is cioqKernelFor for crossbar policies.
func crossbarKernelFor(pol switchsim.CrossbarPolicy) crossbarKernel {
	switch p := pol.(type) {
	case *core.CGU:
		return &cguKernel{rotate: p.RotatePick}
	case *core.CPG:
		// Replicates (*core.CPG).Reset's parameter resolution (zero means
		// the paper default, anything else clamps to >= 1).
		return &cpgKernel{beta: cpgParam(p.Beta, core.DefaultBetaCPG()), alpha: cpgParam(p.Alpha, core.DefaultAlphaCPG())}
	}
	return nil
}

// cpgParam mirrors core's betaOrDefault: zero picks the default, other
// values clamp to at least 1.
func cpgParam(v, def float64) float64 {
	if v == 0 {
		return def
	}
	return math.Max(v, 1)
}

// gmKernel is the batched GM (and NaiveFIFO) scheduler: a greedy maximal
// matching over the eligibility rows {voq row ∧ free outputs} in the
// configured scan order. The Rotating order's tick counter is derived
// from the clock — the scalar policy gains one tick per scheduling cycle
// whether or not any queue is occupied, so ticks == slot*Speedup + cycle.
type gmKernel struct {
	order core.EdgeOrder
}

func (g *gmKernel) reset(f *CIOQFleet) {
	if g.order == core.LongestFirst && cap(f.edges) < f.nm {
		f.edges = make([]matching.Edge, 0, f.nm)
	}
}

func (g *gmKernel) wantsVOQByOut() bool { return g.order == core.ColMajor }

func (g *gmKernel) weighted() bool { return false }

func (g *gmKernel) cycle(v *cioqView, slot, cycle int) {
	f := v.f
	n, m := v.n, v.m
	switch g.order {
	case core.ColMajor:
		availIn := f.availIn
		availIn.Fill(n)
		for wdx, w := range v.outFree {
			for ; w != 0; w &= w - 1 {
				j := wdx<<6 | bits.TrailingZeros64(w)
				if i := v.voqByOutRow(j).FirstAnd(availIn); i >= 0 {
					availIn.Clear(i)
					v.transfer(i, j)
				}
			}
		}
	case core.Rotating:
		ticks := slot*v.speedup + cycle
		oi, oj := ticks%n, ticks%m
		if v.narrow {
			// One-word rows: keep the open-output mask in a register.
			avail := v.outFree[0]
			for di := 0; di < n; di++ {
				i := (oi + di) % n
				if j := wordFirstFrom(v.voq[i]&avail, oj); j >= 0 {
					avail &^= 1 << uint(j)
					v.transfer(i, j)
				}
			}
			return
		}
		avail := f.availOut
		copy(avail, v.outFree)
		for di := 0; di < n; di++ {
			i := (oi + di) % n
			if j := v.voqRow(i).FirstAndFrom(avail, oj); j >= 0 {
				avail.Clear(j)
				v.transfer(i, j)
			}
		}
	case core.LongestFirst:
		edges := f.edges[:0]
		wm := v.wm
		for i := 0; i < n; i++ {
			for wdx := 0; wdx < wm; wdx++ {
				for w := v.voq[i*wm+wdx] & v.outFree[wdx]; w != 0; w &= w - 1 {
					j := wdx<<6 | bits.TrailingZeros64(w)
					edges = append(edges, matching.Edge{U: i, V: j, W: int64(v.iqHdr[i*m+j].n)})
				}
			}
		}
		f.edges = edges
		for _, e := range f.sched.GreedyMaximalWeighted(n, m, edges) {
			v.transfer(e.U, e.V)
		}
	default: // core.RowMajor
		if v.narrow {
			// One-word rows: keep the open-output mask in a register.
			avail := v.outFree[0]
			for i, w := range v.voq {
				if w &= avail; w != 0 {
					j := bits.TrailingZeros64(w)
					avail &^= 1 << uint(j)
					v.transfer(i, j)
				}
			}
			return
		}
		avail := f.availOut
		copy(avail, v.outFree)
		for i := 0; i < n; i++ {
			if j := v.voqRow(i).FirstAnd(avail); j >= 0 {
				avail.Clear(j)
				v.transfer(i, j)
			}
		}
	}
}

// rrKernel is the batched iSLIP-style RoundRobin scheduler: one
// grant/accept round with per-output grant and per-input accept pointers
// that advance only on acceptance, so quiescent stretches leave them
// untouched and no idle hook is needed.
type rrKernel struct{}

func (rrKernel) wantsVOQByOut() bool { return true }

func (rrKernel) weighted() bool { return false }

func (rrKernel) reset(f *CIOQFleet) {
	if len(f.rrGrant) != f.batch*f.m {
		f.rrGrant = make([]int32, f.batch*f.m)
		f.rrAccept = make([]int32, f.batch*f.n)
		f.grants = make(bitset.Mask, f.n*f.wm)
	}
	clear(f.rrGrant)
	clear(f.rrAccept)
}

func (rrKernel) cycle(v *cioqView, slot, cycle int) {
	n, m, wm := v.n, v.m, v.wm
	grants := v.f.grants
	grants.Zero()
	// Grant: each open output grants the first requesting input at or
	// after its grant pointer.
	for wdx, w := range v.outFree {
		for ; w != 0; w &= w - 1 {
			j := wdx<<6 | bits.TrailingZeros64(w)
			var i int
			if v.narrow {
				i = wordFirstFrom(v.voqByOut[j], int(v.rrG[j]))
			} else {
				i = v.voqByOutRow(j).FirstFrom(int(v.rrG[j]))
			}
			if i >= 0 {
				grants[i*wm:].Set(j)
			}
		}
	}
	// Accept: each input accepts the first granting output at or after
	// its accept pointer; pointers advance only on acceptance.
	for i := 0; i < n; i++ {
		var ch int
		if v.narrow {
			ch = wordFirstFrom(grants[i], int(v.rrA[i]))
		} else {
			ch = grants[i*wm : (i+1)*wm].FirstFrom(int(v.rrA[i]))
		}
		if ch >= 0 {
			v.transfer(i, ch)
			v.rrA[i] = int32((ch + 1) % m)
			v.rrG[ch] = int32((i + 1) % n)
		}
	}
}

// pgKernel is the batched PG / KRMWM scheduler: enumerate the eligible
// VOQ-head edges (destination open, or the head beats beta times the
// destination's least valuable packet), match — greedy maximal for PG,
// maximum-weight Hungarian for KRMWM — and execute each transfer with
// output-side preemption. Both scalar policies resolve their beta in
// Reset; the kernel bakes the resolved value in at construction. Neither
// policy has slot-dependent state, so no idle hook is needed.
type pgKernel struct {
	beta      float64
	maxWeight bool // KRMWM: maximum-weight matching instead of greedy maximal
}

// pgFastMaxW bounds the packed-key fast path of the greedy PG kernel; it
// matches the counting-sort weight bound inside matching.WeightedScheduler
// so the two paths cover exactly the same instances.
const pgFastMaxW = 2048

func (g *pgKernel) reset(f *CIOQFleet) {
	if cap(f.edges) < f.nm {
		f.edges = make([]matching.Edge, 0, f.nm)
	}
	if !g.maxWeight && (len(f.wcnt) != pgFastMaxW+1 || cap(f.wsorted) < f.nm) {
		f.wkeys = make([]uint32, 0, f.nm)
		f.wsorted = make([]uint32, f.nm)
		f.wcnt = make([]int32, pgFastMaxW+1)
		f.wcntHi = 0
		f.tails = make([]tail, f.m)
	}
}

func (g *pgKernel) wantsVOQByOut() bool { return false }

func (g *pgKernel) weighted() bool { return true }

func (g *pgKernel) cycle(v *cioqView, slot, cycle int) {
	if !g.maxWeight && g.fastCycle(v) {
		return
	}
	g.genericCycle(v)
}

// fastCycle is the greedy-PG hot path: eligible VOQ-head edges are packed
// into uint32 keys (weight<<18 | input<<9 | output, valid because ports
// fit 9 bits up to maxPorts and the fast path requires weight <=
// pgFastMaxW, 12 bits), a stable counting scatter by weight descending
// reproduces the scheduler's contract order (weight desc, ties input asc
// then output asc — the enumeration itself is (input, output)-ascending),
// and the greedy accept runs on two used-port masks, executing each
// accepted transfer immediately. Decisions are identical to the
// matching-package path; reports false without transferring anything
// when a head value exceeds the packed range, so the caller can rerun the
// generic path.
func (g *pgKernel) fastCycle(v *cioqView) bool {
	f := v.f
	cnt := f.wcnt
	clear(cnt[:f.wcntHi])
	keys := f.wkeys[:0]
	maxW := int32(0)
	// A full output's tail value (and its beta multiple) is shared by
	// every input's eligibility test, so hoist both out of the edge scan
	// and compute them once per cycle. Full outputs are busy, so
	// busy &^ free names exactly them.
	tails := f.tails
	for wdx, w := range v.outBusy {
		for w &^= v.outFree[wdx]; w != 0; w &= w - 1 {
			j := wdx<<6 | bits.TrailingZeros64(w)
			ho := &v.oqHdr[j]
			tv := v.oq[j*v.ocap+int((ho.head+ho.n-1)&v.ocapM)].v
			tails[j] = tail{v: tv, b: g.beta * float64(tv)}
		}
	}
	wm := v.wm
	for i := 0; i < v.n; i++ {
		for wdx := 0; wdx < wm; wdx++ {
			w, of := v.voq[i*wm+wdx], v.outFree[wdx]
			for ; w != 0; w &= w - 1 {
				b := bits.TrailingZeros64(w)
				j := wdx<<6 | b
				hv := v.iqHV[i*v.m+j]
				if of&(1<<uint(b)) == 0 {
					// beta >= 1, so hv <= tail already fails eligibility;
					// the integer compare keeps the float math off the
					// common rejected path.
					if t := &tails[j]; hv <= t.v || float64(hv) <= t.b {
						continue
					}
				}
				if hv > pgFastMaxW {
					// Out-of-range value: record the partially counted cnt
					// range (the offending head was never counted) so the
					// next clear wipes it.
					f.wcntHi = maxW + 1
					return false
				}
				cnt[hv]++
				maxW = max(maxW, int32(hv))
				keys = append(keys, uint32(hv)<<18|uint32(i)<<9|uint32(j))
			}
		}
	}
	f.wkeys = keys
	f.wcntHi = maxW + 1
	if len(keys) == 0 {
		return true
	}
	// Prefix offsets with heavier weights first, then stable scatter.
	total := int32(0)
	for w := maxW; w >= 1; w-- {
		c := cnt[w]
		cnt[w] = total
		total += c
	}
	sorted := f.wsorted[:len(keys)]
	for _, k := range keys {
		w := k >> 18
		sorted[cnt[w]] = k
		cnt[w]++
	}
	if v.narrow {
		// One-word rows: keep the used-port masks in registers.
		var usedU, usedV uint64
		for _, k := range sorted {
			bi, bj := uint64(1)<<(k>>9&63), uint64(1)<<(k&63)
			if usedU&bi == 0 && usedV&bj == 0 {
				usedU |= bi
				usedV |= bj
				v.wtransfer(int(k>>9)&511, int(k)&511)
			}
		}
		return true
	}
	// Used-port masks live on the stack, sized for maxPorts (the 9-bit
	// key fields keep every word index below maxPorts/64).
	var usedU, usedV [maxPorts / 64]uint64
	for _, k := range sorted {
		i := int(k>>9) & 511
		j := int(k) & 511
		bi, bj := uint64(1)<<uint(i&63), uint64(1)<<uint(j&63)
		if usedU[i>>6]&bi == 0 && usedV[j>>6]&bj == 0 {
			usedU[i>>6] |= bi
			usedV[j>>6] |= bj
			v.wtransfer(i, j)
		}
	}
	return true
}

// genericCycle enumerates eligible edges as matching.Edge values and
// defers to the shared matchers: Hungarian for KRMWM, the weighted
// scheduler (with its own counting/radix fast paths) for greedy PG edges
// whose values overflow the packed fast path.
func (g *pgKernel) genericCycle(v *cioqView) {
	f := v.f
	edges := f.edges[:0]
	wm := v.wm
	for i := 0; i < v.n; i++ {
		for wdx := 0; wdx < wm; wdx++ {
			w, of := v.voq[i*wm+wdx], v.outFree[wdx]
			for ; w != 0; w &= w - 1 {
				b := bits.TrailingZeros64(w)
				j := wdx<<6 | b
				hv := v.iqHV[i*v.m+j]
				if of&(1<<uint(b)) == 0 {
					ho := &v.oqHdr[j]
					tv := v.oq[j*v.ocap+int((ho.head+ho.n-1)&v.ocapM)].v
					if float64(hv) <= g.beta*float64(tv) {
						continue
					}
				}
				edges = append(edges, matching.Edge{U: i, V: j, W: hv})
			}
		}
	}
	f.edges = edges
	var matched []matching.Edge
	if g.maxWeight {
		matched = f.hung.MaxWeightMatching(v.n, v.m, edges)
	} else {
		matched = f.sched.GreedyMaximalWeighted(v.n, v.m, edges)
	}
	for _, e := range matched {
		v.wtransfer(e.U, e.V)
	}
}

// cpgKernel is the batched CPG scheduler. Input subphase: each input
// forwards its best eligible VOQ head (ByValue order over heads;
// eligibility is crosspoint-open or head beats beta times the crosspoint
// tail) to the crosspoint. Output subphase: each output pulls the best
// occupied-crosspoint head, transferring only if the output queue is open
// or the head beats alpha times the output tail. The scalar policy picks
// every input's (and then every output's) move from the subphase-start
// snapshot; picks here execute immediately, which is equivalent because a
// pick reads only state that its own port's transfer mutates.
type cpgKernel struct {
	beta, alpha float64
}

func (c *cpgKernel) weighted() bool { return true }

func (c *cpgKernel) cycle(v *crossbarView, slot, cycle int) {
	wm, wn := v.wm, v.wn
	for i := 0; i < v.n; i++ {
		bestJ := -1
		haveID := false
		var bestV, bestID int64
		for wdx := 0; wdx < wm; wdx++ {
			w, xf := v.voq[i*wm+wdx], v.xFree[i*wm+wdx]
			for ; w != 0; w &= w - 1 {
				b := bits.TrailingZeros64(w)
				j := wdx<<6 | b
				q := i*v.m + j
				hv := v.iqHV[q]
				if bestJ >= 0 && hv < bestV {
					// A dominated head can never become the pick, eligible
					// or not: skip the crosspoint-tail load and the beta
					// comparison outright.
					continue
				}
				if xf&(1<<uint(b)) == 0 {
					hx := &v.xqHdr[q]
					tv := v.xq[q*v.xcap+int((hx.head+hx.n-1)&v.xcapM)].v
					// beta >= 1: the integer compare rejects without the
					// float math on the common path.
					if hv <= tv || float64(hv) <= c.beta*float64(tv) {
						continue
					}
				}
				// Head IDs break value ties, so their (header, ring) load
				// pairs are deferred until a tie actually happens.
				if bestJ < 0 || hv > bestV {
					bestJ, bestV = j, hv
					haveID = false
				} else {
					if !haveID {
						bq := i*v.m + bestJ
						bestID = v.iqID[bq*v.icap+int(v.iqHdr[bq].head)]
						haveID = true
					}
					if hid := v.iqID[q*v.icap+int(v.iqHdr[q].head)]; hid < bestID {
						bestJ, bestID = j, hid
					}
				}
			}
		}
		if bestJ >= 0 {
			v.wInputTransfer(i, bestJ)
		}
	}
	for j := 0; j < v.m; j++ {
		bestI := -1
		haveID := false
		var bestV, bestID int64
		for wdx := 0; wdx < wn; wdx++ {
			for w := v.xBusyByOut[j*wn+wdx]; w != 0; w &= w - 1 {
				i := wdx<<6 | bits.TrailingZeros64(w)
				hv := v.xqHV[j*v.n+i] // transposed lane: sequential in i
				if bestI < 0 || hv > bestV {
					bestI, bestV = i, hv
					haveID = false
				} else if hv == bestV {
					// Same lazy tie-break as the input subphase.
					if !haveID {
						bq := bestI*v.m + j
						bestID = v.xqID[bq*v.xcap+int(v.xqHdr[bq].head)]
						haveID = true
					}
					q := i*v.m + j
					if hid := v.xqID[q*v.xcap+int(v.xqHdr[q].head)]; hid < bestID {
						bestI, bestID = i, hid
					}
				}
			}
		}
		if bestI < 0 {
			continue
		}
		if !v.outFree.Test(j) {
			ho := &v.oqHdr[j]
			tv := v.oq[j*v.ocap+int((ho.head+ho.n-1)&v.ocapM)].v
			// alpha >= 1: same integer pre-reject as the input subphase.
			if bestV <= tv || float64(bestV) <= c.alpha*float64(tv) {
				continue
			}
		}
		v.wOutputTransfer(bestI, j)
	}
}

// cguKernel is the batched CGU scheduler: per input, move the head of the
// first non-empty VOQ whose crosspoint has room; per open output, pull
// from the first non-empty crosspoint. The rotating variant's tick
// counter is clock-derived exactly as GM's.
type cguKernel struct {
	rotate bool
}

func (c *cguKernel) weighted() bool { return false }

func (c *cguKernel) cycle(v *crossbarView, slot, cycle int) {
	n := v.n
	ticks := slot*v.speedup + cycle
	startJ, startI := 0, 0
	if c.rotate {
		startJ, startI = ticks%v.m, ticks%n
	}
	for i := 0; i < n; i++ {
		var j int
		if v.narrow {
			j = wordFirstFrom(v.voq[i]&v.xFree[i], startJ)
		} else {
			j = v.voqRow(i).FirstAndFrom(v.xFreeRow(i), startJ)
		}
		if j >= 0 {
			v.inputTransfer(i, j)
		}
	}
	// Per open output, pull from the first non-empty crosspoint. An
	// output's transfer only mutates its own outFree bit, so word copies
	// are equivalent to a live scan.
	for wdx, w := range v.outFree {
		for ; w != 0; w &= w - 1 {
			j := wdx<<6 | bits.TrailingZeros64(w)
			var i int
			if v.narrow {
				i = wordFirstFrom(v.xBusyByOut[j], startI)
			} else {
				i = v.xBusyByOutRow(j).FirstFrom(startI)
			}
			if i >= 0 {
				v.outputTransfer(i, j)
			}
		}
	}
}
