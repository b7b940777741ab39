package fleet

import (
	"fmt"

	"qswitch/internal/bitset"
	"qswitch/internal/switchsim"
)

// CrossbarFleet is the buffered-crossbar counterpart of CIOQFleet: B
// independent crossbar instances in columnar layout, stepped in lockstep
// windows with per-instance quiescent jumps. Quiescence requires both the
// input and the crosspoint layers to be empty — while crosspoints hold
// packets the output subphase still makes policy-specific choices, so
// those slots run densely, exactly as in the scalar engine.
type CrossbarFleet struct {
	engine
	kern     crossbarKernel
	view     crossbarView
	xcap     int
	crossBuf int32

	// Crosspoint lanes: occupancy spans, rings and headers.
	xFree      []uint64 // [(k*n+i)*wm + w]: outputs j with XQ(k,i,j) not full
	xBusyByOut []uint64 // [(k*m+j)*wn + w]: inputs i with XQ(k,i,j) non-empty
	xq         []pkt    // [(k*nm + i*m + j)*xcap + pos]
	xqHdr      []qhdr   // [k*nm + i*m + j]

	// Weighted kernels only: the crosspoint ID lane and head-value lane.
	// xqHV is TRANSPOSED to [k*nm + j*n + i] because its only reader is
	// the CPG output subphase, whose per-output argmax scan then walks it
	// sequentially instead of at stride m.
	xqID []int64
	xqHV []int64
}

// crossbarView is the crossbar per-instance view: the shared view plus
// the crosspoint lanes.
type crossbarView struct {
	view
	xFree      bitset.Mask
	xBusyByOut bitset.Mask
	xqHdr      []qhdr
	xq         []pkt
	xqID, xqHV []int64
	xcap       int
	xcapM      int32
	crossBuf   int32
}

// xFreeRow returns input i's crosspoint-has-room row.
func (v *crossbarView) xFreeRow(i int) bitset.Mask { return v.xFree[i*v.wm : (i+1)*v.wm] }

// xBusyByOutRow returns output j's occupied-crosspoint row.
func (v *crossbarView) xBusyByOutRow(j int) bitset.Mask {
	return v.xBusyByOut[j*v.wn : (j+1)*v.wn]
}

// NewCrossbarFleet sizes a fleet of `batch` crossbar instances for the
// configuration and policy family produced by factory, returning
// ErrUnsupported (possibly wrapped) when no batched kernel exists or the
// geometry exceeds 512 ports.
func NewCrossbarFleet(cfg switchsim.Config, factory func() switchsim.CrossbarPolicy, batch int) (*CrossbarFleet, error) {
	if err := cfg.Check(true); err != nil {
		return nil, err
	}
	if batch < 1 {
		return nil, fmt.Errorf("fleet: batch size %d < 1", batch)
	}
	pol := factory()
	kern := crossbarKernelFor(pol)
	if kern == nil {
		return nil, fmt.Errorf("fleet: policy %q: %w", pol.Name(), ErrUnsupported)
	}
	if cfg.Inputs > maxPorts || cfg.Outputs > maxPorts {
		return nil, fmt.Errorf("fleet: geometry %dx%d exceeds %d ports: %w", cfg.Inputs, cfg.Outputs, maxPorts, ErrUnsupported)
	}
	f := &CrossbarFleet{kern: kern, xcap: ceilPow2(cfg.CrossBuf), crossBuf: int32(cfg.CrossBuf)}
	f.init(cfg, pol.Name(), batch, f, &f.view.view, kern.weighted())
	f.xFree = make([]uint64, batch*f.n*f.wm)
	f.xBusyByOut = make([]uint64, batch*f.m*f.wn)
	f.xq = make([]pkt, batch*f.nm*f.xcap)
	f.xqHdr = make([]qhdr, batch*f.nm)
	if kern.weighted() {
		f.xqID = make([]int64, batch*f.nm*f.xcap)
		f.xqHV = make([]int64, batch*f.nm)
	}
	v := &f.view
	v.xcap, v.xcapM, v.crossBuf = f.xcap, int32(f.xcap-1), f.crossBuf
	return f, nil
}

func (f *CrossbarFleet) resetLanes() {
	clear(f.xBusyByOut)
	clear(f.xqHdr)
	for r := 0; r < f.batch*f.n; r++ {
		bitset.Mask(f.xFree[r*f.wm : (r+1)*f.wm]).Fill(f.m)
	}
}

func (f *CrossbarFleet) bindLanes(k int) {
	v := &f.view
	v.xFree = f.xFree[k*f.n*f.wm : (k+1)*f.n*f.wm]
	v.xBusyByOut = f.xBusyByOut[k*f.m*f.wn : (k+1)*f.m*f.wn]
	v.xqHdr = f.xqHdr[k*f.nm : (k+1)*f.nm]
	v.xq = f.xq[k*f.nm*f.xcap : (k+1)*f.nm*f.xcap]
	if f.xqID != nil {
		v.xqID = f.xqID[k*f.nm*f.xcap : (k+1)*f.nm*f.xcap]
		v.xqHV = f.xqHV[k*f.nm : (k+1)*f.nm]
	}
}

func (f *CrossbarFleet) schedule(slot int) {
	for c := 0; c < f.cfg.Speedup; c++ {
		f.kern.cycle(&f.view, slot, c)
	}
}

// checkLanes cross-checks the crosspoint layer: lengths, ByValue order,
// the xFree and xBusyByOut rows and the crosspoint counter.
func (f *CrossbarFleet) checkLanes(k, T int) error {
	var cross int32
	for i := 0; i < f.n; i++ {
		xFreeRow := bitset.Mask(f.xFree[(k*f.n+i)*f.wm : (k*f.n+i+1)*f.wm])
		for j := 0; j < f.m; j++ {
			q := k*f.nm + i*f.m + j
			xl := f.xqHdr[q].n
			cross += xl
			if xl < 0 || xl > f.crossBuf {
				return fmt.Errorf("fleet: slot %d instance %d: XQ[%d][%d] length %d out of range", T, k, i, j, xl)
			}
			if got, want := xFreeRow.Test(j), xl < f.crossBuf; got != want {
				return fmt.Errorf("fleet: slot %d instance %d: XFree[%d] bit %d = %v, len=%d", T, k, i, j, got, xl)
			}
			if got, want := bitset.Mask(f.xBusyByOut[(k*f.m+j)*f.wn:]).Test(i), xl > 0; got != want {
				return fmt.Errorf("fleet: slot %d instance %d: XBusyByOut[%d] bit %d = %v, len=%d", T, k, j, i, got, xl)
			}
			if f.xqID != nil && !ringOrdered(f.xq, f.xqID, f.xqHdr[q], q*f.xcap, int32(f.xcap-1)) {
				return fmt.Errorf("fleet: slot %d instance %d: XQ[%d][%d] not in ByValue order", T, k, i, j)
			}
		}
	}
	if cross != f.st[k].crossCount {
		return fmt.Errorf("fleet: slot %d instance %d: crosspoint counter %d but queues hold %d", T, k, f.st[k].crossCount, cross)
	}
	return nil
}

// inputTransfer moves the head packet of IQ(i,j) to XQ(i,j) on the bound
// instance. Kernels only produce transfers whose crosspoint has room.
func (v *crossbarView) inputTransfer(i, j int) {
	q := i*v.m + j
	h := &v.iqHdr[q]
	p := v.iq[q*v.icap+int(h.head)]
	h.head = (h.head + 1) & v.icapM
	h.n--
	if h.n == 0 {
		clearBit(v.voq, v.wm, i, j)
	}
	hx := &v.xqHdr[q]
	v.xq[q*v.xcap+int((hx.head+hx.n)&v.xcapM)] = p
	hx.n++
	setBit(v.xBusyByOut, v.wn, j, i)
	if hx.n >= v.crossBuf {
		clearBit(v.xFree, v.wm, i, j)
	}
	st := v.st
	st.inCount--
	st.crossCount++
	v.hm.transferred++
}

// outputTransfer moves the head packet of XQ(i,j) to OQ(j) on the bound
// instance. Kernels only produce transfers whose output queue has room.
func (v *crossbarView) outputTransfer(i, j int) {
	q := i*v.m + j
	h := &v.xqHdr[q]
	p := v.xq[q*v.xcap+int(h.head)]
	h.head = (h.head + 1) & v.xcapM
	h.n--
	if h.n == 0 {
		clearBit(v.xBusyByOut, v.wn, j, i)
	}
	setBit(v.xFree, v.wm, i, j)
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
	st.crossCount--
	st.outCount++
	v.hm.transferredCross++
}

// wInputTransfer moves the most valuable packet of IQ(i,j) — the ByValue
// ring head — into crosspoint XQ(i,j), preempting the crosspoint's least
// valuable packet when it is full, exactly as the scalar engine's
// executeInputSubphase does for preemptive policies; a sub-1 beta can
// produce an unprofitable transfer, which errors as in the scalar engine.
func (v *crossbarView) wInputTransfer(i, j int) {
	q := i*v.m + j
	h := &v.iqHdr[q]
	x := q*v.icap + int(h.head)
	p := v.iq[x]
	id := v.iqID[x]
	h.head = (h.head + 1) & v.icapM
	h.n--
	if h.n == 0 {
		clearBit(v.voq, v.wm, i, j)
	} else {
		v.iqHV[q] = v.iq[q*v.icap+int(h.head)].v
	}
	st := v.st
	st.inCount--
	hx := &v.xqHdr[q]
	base := q * v.xcap
	if hx.n >= v.crossBuf {
		ti := base + int((hx.head+hx.n-1)&v.xcapM)
		tv := v.xq[ti].v
		if tv >= p.v {
			v.e.err = fmt.Errorf("fleet: transfer %d->%d of value %d rejected by full XQ (tail %d not worse)", i, j, p.v, tv)
			return
		}
		hx.n--
		v.hm.preemptedCross++
		v.hm.preemptedCrossVal += tv
	} else {
		setBit(v.xBusyByOut, v.wn, j, i)
		st.crossCount++
	}
	if hx.n == 0 {
		// Empty (or fully preempted, CrossBuf 1) crosspoint: the insert
		// is a store and the new head value is the packet itself.
		ringInsert0(v.xq, v.xqID, hx, base, p, id)
		v.xqHV[j*v.n+i] = p.v
	} else {
		ringInsert(v.xq, v.xqID, hx, base, v.xcapM, p, id)
		v.xqHV[j*v.n+i] = v.xq[base+int(hx.head)].v
	}
	// A preempting insert leaves the crosspoint full; re-clearing the
	// bit is idempotent, so the fullness check is shared by both
	// branches.
	if hx.n >= v.crossBuf {
		clearBit(v.xFree, v.wm, i, j)
	}
	v.hm.transferred++
}

// wOutputTransfer moves the most valuable packet of XQ(i,j) into output
// queue j, preempting the output's least valuable packet when it is full,
// exactly as the scalar engine's executeOutputSubphase does.
func (v *crossbarView) wOutputTransfer(i, j int) {
	q := i*v.m + j
	h := &v.xqHdr[q]
	x := q*v.xcap + int(h.head)
	p := v.xq[x]
	id := v.xqID[x]
	h.head = (h.head + 1) & v.xcapM
	h.n--
	if h.n == 0 {
		clearBit(v.xBusyByOut, v.wn, j, i)
	} else {
		v.xqHV[j*v.n+i] = v.xq[q*v.xcap+int(h.head)].v
	}
	setBit(v.xFree, v.wm, i, j)
	st := v.st
	st.crossCount--
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
	v.hm.transferredCross++
}
