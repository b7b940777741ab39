package fleet

import (
	"fmt"

	"qswitch/internal/bitset"
	"qswitch/internal/matching"
	"qswitch/internal/switchsim"
)

// CIOQFleet is a batch of B independent CIOQ switch instances sharing one
// configuration and one policy kernel, stepped in lockstep windows over a
// global slot clock. All switch state is columnar (see the package
// documentation); storage is sized once at construction and reused across
// Reset, so steady-state stepping never allocates.
type CIOQFleet struct {
	engine
	kern cioqKernel
	view cioqView

	// Kernel state and scratch.
	rrGrant  []int32     // [k*m+j]: RoundRobin per-output grant pointer
	rrAccept []int32     // [k*n+i]: RoundRobin per-input accept pointer
	grants   bitset.Mask // [i*wm + w]: one cycle's RoundRobin grant rows
	availIn  bitset.Mask // [wn]: one cycle's unmatched inputs
	availOut bitset.Mask // [wm]: one cycle's unmatched outputs
	edges    []matching.Edge
	sched    matching.WeightedScheduler
	hung     matching.HungarianSolver
	wkeys    []uint32 // packed (w<<18|i<<9|j) eligible edges, (i,j)-ascending
	wsorted  []uint32 // counting-scatter output, weight-descending
	wcnt     []int32  // per-weight bucket counts/offsets
	wcntHi   int32    // dirty prefix of wcnt to clear next cycle
	tails    []tail   // [m]: one cycle's full-output tails
}

// tail is a full output queue's least valuable packet value and its beta
// multiple, hoisted once per PG cycle out of the eligibility tests.
type tail struct {
	v int64
	b float64
}

// cioqView is the CIOQ per-instance view: the shared view plus the
// RoundRobin pointer lanes.
type cioqView struct {
	view
	f        *CIOQFleet
	rrG, rrA []int32
}

// NewCIOQFleet sizes a fleet of `batch` instances for the configuration
// and policy family produced by factory. It returns ErrUnsupported
// (possibly wrapped) when the policy has no batched kernel or the
// geometry exceeds the columnar engine's 512-port limit; callers wanting
// transparent fallback use RunCIOQ instead.
func NewCIOQFleet(cfg switchsim.Config, factory func() switchsim.CIOQPolicy, batch int) (*CIOQFleet, error) {
	if err := cfg.Check(false); err != nil {
		return nil, err
	}
	if batch < 1 {
		return nil, fmt.Errorf("fleet: batch size %d < 1", batch)
	}
	pol := factory()
	kern := cioqKernelFor(pol)
	if kern == nil {
		return nil, fmt.Errorf("fleet: policy %q: %w", pol.Name(), ErrUnsupported)
	}
	if cfg.Inputs > maxPorts || cfg.Outputs > maxPorts {
		return nil, fmt.Errorf("fleet: geometry %dx%d exceeds %d ports: %w", cfg.Inputs, cfg.Outputs, maxPorts, ErrUnsupported)
	}
	f := &CIOQFleet{kern: kern}
	f.init(cfg, pol.Name(), batch, f, &f.view.view, kern.weighted())
	f.voqByOut = make([]uint64, batch*f.m*f.wn)
	f.availIn = make(bitset.Mask, f.wn)
	f.availOut = make(bitset.Mask, f.wm)
	f.view.f = f
	f.view.wantByOut = kern.wantsVOQByOut() || cfg.Validate
	kern.reset(f)
	return f, nil
}

// resetLanes rewinds the kernel state; the shared lanes (including
// voqByOut) are the engine's.
func (f *CIOQFleet) resetLanes() { f.kern.reset(f) }

func (f *CIOQFleet) bindLanes(k int) {
	if f.rrGrant != nil {
		f.view.rrG = f.rrGrant[k*f.m : (k+1)*f.m]
		f.view.rrA = f.rrAccept[k*f.n : (k+1)*f.n]
	}
}

func (f *CIOQFleet) schedule(slot int) {
	for c := 0; c < f.cfg.Speedup; c++ {
		f.kern.cycle(&f.view, slot, c)
	}
}

// checkLanes cross-checks the transposed occupancy rows.
func (f *CIOQFleet) checkLanes(k, T int) error {
	for j := 0; j < f.m; j++ {
		col := bitset.Mask(f.voqByOut[(k*f.m+j)*f.wn : (k*f.m+j+1)*f.wn])
		for i := 0; i < f.n; i++ {
			l := f.iqHdr[k*f.nm+i*f.m+j].n
			if got, want := col.Test(i), l > 0; got != want {
				return fmt.Errorf("fleet: slot %d instance %d: VOQByOut[%d] bit %d = %v, len=%d", T, k, j, i, got, l)
			}
		}
	}
	return nil
}

// transfer moves the head packet of IQ(i,j) to OQ(j) on the bound
// instance, updating the occupancy index exactly as the scalar engine's
// executeTransfers does. Kernels only produce transfers whose destination
// has room.
func (v *cioqView) transfer(i, j int) {
	q := i*v.m + j
	h := &v.iqHdr[q]
	p := v.iq[q*v.icap+int(h.head)]
	h.head = (h.head + 1) & v.icapM
	h.n--
	if h.n == 0 {
		clearBit(v.voq, v.wm, i, j)
		if v.wantByOut {
			clearBit(v.voqByOut, v.wn, j, i)
		}
	}
	ho := &v.oqHdr[j]
	if ho.n == 0 {
		// Empty destination: the packet is this slot's transmit head, so
		// park it in the pass-through buffer instead of the ring.
		v.pend[j] = p
		v.direct.Set(j)
		v.passCount++
	} else {
		v.oq[j*v.ocap+int((ho.head+ho.n)&v.ocapM)] = p
	}
	ho.n++
	v.outBusy.Set(j)
	if ho.n >= v.outBuf {
		v.outFree.Clear(j)
	}
	st := v.st
	st.inCount--
	st.outCount++
	v.hm.transferred++
}

// wtransfer moves the most valuable packet of IQ(i,j) — the ByValue ring
// head — into output queue j on the bound instance, preempting the
// output's least valuable packet when it is full, exactly as the scalar
// engine's executeTransfers does with PreemptIfFull set.
func (v *cioqView) wtransfer(i, j int) {
	q := i*v.m + j
	h := &v.iqHdr[q]
	x := q*v.icap + int(h.head)
	p := v.iq[x]
	id := v.iqID[x]
	h.head = (h.head + 1) & v.icapM
	h.n--
	if h.n == 0 {
		clearBit(v.voq, v.wm, i, j)
		if v.wantByOut {
			clearBit(v.voqByOut, v.wn, j, i)
		}
	} else {
		v.iqHV[q] = v.iq[q*v.icap+int(h.head)].v
	}
	st := v.st
	st.inCount--
	ho := &v.oqHdr[j]
	base := j * v.ocap
	if ho.n >= v.outBuf {
		// Full destination: preempt its least valuable packet. Kernels
		// only produce transfers the eligibility rule admits, which with
		// beta >= 1 guarantees the preemption is profitable; a sub-1 beta
		// can produce an unprofitable transfer, which errors here as it
		// does in the scalar engine.
		ti := base + int((ho.head+ho.n-1)&v.ocapM)
		tv := v.oq[ti].v
		if tv >= p.v {
			v.e.err = fmt.Errorf("fleet: transfer %d->%d of value %d rejected by full OQ (tail %d not worse)", i, j, p.v, tv)
			return
		}
		ho.n--
		v.hm.preemptedOut++
		v.hm.preemptedOutVal += tv
	} else {
		v.outBusy.Set(j)
		st.outCount++
	}
	if ho.n == 0 {
		ringInsert0(v.oq, v.oqID, ho, base, p, id)
	} else {
		ringInsert(v.oq, v.oqID, ho, base, v.ocapM, p, id)
	}
	// A preempting insert leaves the queue full; re-clearing the bit is
	// idempotent, so the fullness check is shared by both branches.
	if ho.n >= v.outBuf {
		v.outFree.Clear(j)
	}
	v.hm.transferred++
}
