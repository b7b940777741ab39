package fleet

import (
	"fmt"
	"math/bits"

	"qswitch/internal/bitset"
	"qswitch/internal/packet"
	"qswitch/internal/switchsim"
)

// windowSlots is the lockstep quantum: one Step advances the global clock
// by up to this many slots, each active instance simulating its share of
// the window in one visit. Windowing is what makes the columnar layout
// cache-dense at large batch sizes — an instance's working set (rings,
// headers, masks, counters) is pulled into cache once per window instead
// of once per slot, while the skew between instances stays bounded by the
// window length. Results are independent of the window size; instances
// never read each other's state.
const windowSlots = 32

// pkt is a queued packet: transmission value and arrival slot (the only
// per-packet fields the unit-family policies and the metrics observe).
// One 16-byte entry keeps every queue operation on a single cache line.
type pkt struct {
	v int64
	a int32
	_ int32
}

// qhdr is a queue ring header: position of the head element and current
// length. Ring capacity is a per-fleet power of two.
type qhdr struct {
	head, n int32
}

// ports is the per-instance layer-occupancy summary; the occupancy masks
// live in their own span lanes. crossCount stays zero on CIOQ fleets.
type ports struct {
	inCount, crossCount, outCount int32
}

// hotCtr is the per-instance block of metric accumulators updated in the
// per-slot loop, folded into switchsim.Metrics at retirement. The crossbar
// fields stay zero for CIOQ fleets; the preempt fields stay zero for the
// unit-value kernels, whose admission and transfers never evict.
type hotCtr struct {
	arrived, arrivedVal               int64
	accepted, acceptedVal             int64
	rejected, rejectedVal             int64
	transferred, transferredCross     int64
	sent, benefit                     int64
	inOccup, crossOccup, outOccup     int64
	sampled                           int64
	preemptedIn, preemptedInVal       int64
	preemptedCross, preemptedCrossVal int64
	preemptedOut, preemptedOutVal     int64
}

// host is the switch-type half of a columnar fleet: the lanes and the
// batched kernel that differ between CIOQ and buffered-crossbar switches.
// The engine drives everything the two share — admission, transmission,
// quiescent jumps, retirement and the lockstep window schedule.
type host interface {
	// resetLanes rewinds the switch-specific lanes for a new batch.
	resetLanes()
	// bindLanes points the switch-specific view fields at instance k.
	bindLanes(k int)
	// schedule runs one slot's Speedup kernel cycles on the bound instance.
	schedule(slot int)
	// checkLanes cross-checks instance k's switch-specific occupancy index
	// against its rings (Validate mode only).
	checkLanes(k, slot int) error
}

// engine is the switch-type-independent half of a columnar fleet, shared
// by CIOQFleet and CrossbarFleet: B instances of one geometry and policy
// family in struct-of-arrays form, stepped in lockstep windows over a
// global slot clock. Every occupancy row is a span of wn (input-indexed)
// or wm (output-indexed) uint64 words, fixed at construction from the
// geometry, so one layout serves 1 to maxPorts ports. Storage is sized
// once at construction and reused across Reset, so steady-state stepping
// never allocates.
type engine struct {
	cfg    switchsim.Config
	policy string
	host   host
	batch  int // storage capacity (construction batch size)
	cur    int // instances loaded by the last Reset
	n, m   int
	nm     int
	wn, wm int // words per input-indexed (wn) and output-indexed (wm) row
	icap   int // input-queue ring size (power of two)
	ocap   int // output-queue ring size (power of two)
	inBuf  int32
	outBuf int32

	// Columnar switch state: per-instance blocks inside flat arrays.
	voq      []uint64 // [(k*n+i)*wm + w]: outputs j with IQ(k,i,j) non-empty
	voqByOut []uint64 // [(k*m+j)*wn + w]: inputs i with IQ(k,i,j) non-empty (CIOQ only)
	outFree  []uint64 // [k*wm + w]: outputs whose queue has room
	outBusy  []uint64 // [k*wm + w]: outputs whose queue is non-empty
	st       []ports  // [k]
	iq       []pkt    // [(k*nm + i*m + j)*icap + pos]
	iqHdr    []qhdr   // [k*nm + i*m + j]
	oq       []pkt    // [(k*m + j)*ocap + pos]
	oqHdr    []qhdr   // [k*m + j]
	hot      []hotCtr // [k]

	// ID lanes, allocated only for weighted kernels: the ByValue queue
	// discipline breaks value ties on packet ID, so weighted rings carry
	// the ID alongside the pkt payload (same indexing as iq/oq).
	iqID []int64
	oqID []int64

	// iqHV caches each input ring's head value ([k*nm + q], weighted
	// kernels only): the schedulers scan every occupied VOQ head per
	// cycle, and the flat lane replaces the dependent header+ring load
	// pair on that path. Entries are refreshed wherever the ring head
	// changes and are read only under a set voq bit.
	iqHV []int64

	ms      []switchsim.Metrics
	series  [][]int64
	results []*switchsim.Result

	seqs    []packet.Sequence
	next    []int
	horizon []int
	at      []int // per-instance next slot to simulate

	// Lockstep scheduling state.
	active []int32
	sleep  []sleeper
	slot   int // current window start
	live   int
	err    error

	v *view // the shared half of the host's per-instance view
}

// view is the per-instance working set bound once per window: small
// slices over the instance's blocks plus copies of the loop constants, so
// the slot body and the kernels index tiny slices instead of recomputing
// global offsets per operation. Each host embeds it in its own view.
type view struct {
	e                *engine
	st               *ports
	hm               *hotCtr
	lat              *switchsim.Metrics
	voq, voqByOut    bitset.Mask
	outFree, outBusy bitset.Mask
	iqHdr            []qhdr
	iq               []pkt
	oqHdr            []qhdr
	oq               []pkt
	series           []int64

	// ID and head-value lanes (weighted kernels only); same indexing as
	// the engine's.
	iqID, oqID, iqHV []int64

	n, m           int
	wn, wm         int
	icapM, ocapM   int32 // ring index masks (capacity-1)
	icap, ocap     int
	inBuf, outBuf  int32
	speedup        int
	recLat, recSer bool
	narrow         bool // every row is one word: kernels take their one-word paths
	wantByOut      bool // CIOQ kernel reads voqByOut; maintain it
	weighted       bool // ByValue rings with ID lanes and preemption

	// Direct pass-through delivery: a packet transferred into an empty
	// output queue is necessarily that slot's transmit head, so its
	// payload parks in pend[j] (direct bit set) instead of doing a ring
	// store/load round-trip; the header still advances as if it had been
	// written, keeping ring geometry consistent at any speedup. Every
	// direct bit is consumed by the same slot's transmission, so the mask
	// is fleet-wide scratch. Weighted kernels never use it: a ByValue
	// insertion can land anywhere in the ring, so their transfers always
	// do the ring store.
	direct bitset.Mask
	pend   []pkt

	// passCount tallies pass-through deliveries (pend-buffer parks)
	// across the fleet's lifetime; the runner diffs it around each batch
	// to flush the fleet probes.
	passCount int64
}

// voqRow returns input i's occupancy row (outputs with queued packets).
func (v *view) voqRow(i int) bitset.Mask { return v.voq[i*v.wm : (i+1)*v.wm] }

// voqByOutRow returns output j's transposed occupancy row.
func (v *view) voqByOutRow(j int) bitset.Mask { return v.voqByOut[j*v.wn : (j+1)*v.wn] }

// setBit adds column c to row r of a lane whose rows span w words.
func setBit(lane []uint64, w, r, c int) { lane[r*w+c>>6] |= 1 << uint(c&63) }

// clearBit removes column c from row r of a lane whose rows span w words.
func clearBit(lane []uint64, w, r, c int) { lane[r*w+c>>6] &^= 1 << uint(c&63) }

// init sizes the shared lanes for batch instances of cfg and wires the
// host and its embedded view. Weighted kernels get ID and head-value
// lanes.
func (e *engine) init(cfg switchsim.Config, policy string, batch int, h host, v *view, weighted bool) {
	n, m := cfg.Inputs, cfg.Outputs
	e.cfg, e.policy, e.host, e.v = cfg, policy, h, v
	e.batch, e.cur = batch, batch
	e.n, e.m, e.nm = n, m, n*m
	e.wn, e.wm = bitset.Words(n), bitset.Words(m)
	e.icap, e.ocap = ceilPow2(cfg.InputBuf), ceilPow2(cfg.OutputBuf)
	e.inBuf, e.outBuf = int32(cfg.InputBuf), int32(cfg.OutputBuf)
	e.voq = make([]uint64, batch*n*e.wm)
	e.outFree = make([]uint64, batch*e.wm)
	e.outBusy = make([]uint64, batch*e.wm)
	e.st = make([]ports, batch)
	e.iq = make([]pkt, batch*e.nm*e.icap)
	e.iqHdr = make([]qhdr, batch*e.nm)
	e.oq = make([]pkt, batch*m*e.ocap)
	e.oqHdr = make([]qhdr, batch*m)
	e.hot = make([]hotCtr, batch)
	e.ms = make([]switchsim.Metrics, batch)
	e.series = make([][]int64, batch)
	e.results = make([]*switchsim.Result, batch)
	e.next = make([]int, batch)
	e.horizon = make([]int, batch)
	e.at = make([]int, batch)
	e.active = make([]int32, 0, batch)
	e.sleep = make([]sleeper, 0, batch)
	v.e = e
	v.n, v.m = n, m
	v.wn, v.wm = e.wn, e.wm
	v.narrow = e.wn == 1 && e.wm == 1
	v.icap, v.ocap = e.icap, e.ocap
	v.icapM, v.ocapM = int32(e.icap-1), int32(e.ocap-1)
	v.inBuf, v.outBuf = e.inBuf, e.outBuf
	v.speedup = cfg.Speedup
	v.recLat, v.recSer = cfg.RecordLatency, cfg.RecordSeries
	v.direct = make(bitset.Mask, e.wm)
	v.pend = make([]pkt, m)
	if weighted {
		v.weighted = true
		e.iqID = make([]int64, batch*e.nm*e.icap)
		e.oqID = make([]int64, batch*m*e.ocap)
		e.iqHV = make([]int64, batch*e.nm)
	}
}

// Policy returns the name of the batched policy family.
func (e *engine) Policy() string { return e.policy }

// Reset loads a new batch of arrival sequences (one per instance; the
// slice length may be anything up to the construction batch size, so one
// fleet serves a chunk stream whose final chunk runs short) and rewinds
// every loaded instance to slot 0. Switch storage is reused.
//
// Sequences are validated lazily rather than with an up-front pass: port
// and value violations surface as errors when the packet is admitted, and
// an unsorted sequence is detected at the instance's retirement (see
// checkResidual). ID monotonicity — which the FIFO unit-value family
// never observes — is the caller's responsibility, as with every
// generator-produced sequence.
func (e *engine) Reset(seqs []packet.Sequence) error {
	if len(seqs) < 1 || len(seqs) > e.batch {
		return fmt.Errorf("fleet: got %d sequences for a batch of %d", len(seqs), e.batch)
	}
	e.cur = len(seqs)
	clear(e.voq)
	clear(e.voqByOut)
	clear(e.outBusy)
	clear(e.iqHdr)
	clear(e.oqHdr)
	clear(e.st)
	clear(e.hot)
	for k := 0; k < e.batch; k++ {
		bitset.Mask(e.outFree[k*e.wm : (k+1)*e.wm]).Fill(e.m)
	}
	e.seqs = seqs
	e.active = e.active[:0]
	e.sleep = e.sleep[:0]
	e.slot = 0
	e.live = e.cur
	e.err = nil
	e.v.direct.Zero()
	for k := 0; k < e.cur; k++ {
		e.ms[k] = switchsim.Metrics{}
		if e.cfg.RecordLatency && e.cfg.StreamMetrics {
			e.ms[k].EnableLatencySketch()
		}
		e.results[k] = nil
		e.next[k] = 0
		e.at[k] = 0
		e.horizon[k] = e.cfg.HorizonFor(seqs[k])
		if e.cfg.RecordSeries {
			e.series[k] = make([]int64, e.horizon[k])
		} else {
			e.series[k] = nil
		}
		e.active = append(e.active, int32(k))
	}
	// Drop any tail a previous larger batch left behind, so a runner
	// idling on a short final chunk does not pin old Results and their
	// latency/series storage.
	for k := e.cur; k < e.batch; k++ {
		e.ms[k] = switchsim.Metrics{}
		e.results[k] = nil
		e.series[k] = nil
	}
	e.host.resetLanes()
	return nil
}

// Step advances the global clock by one window (up to windowSlots slots),
// simulating every active instance's share of the window and waking
// sleepers due within it. It returns false once all instances have
// retired or an error is pending; see Results.
func (e *engine) Step() bool {
	if e.err != nil || e.live == 0 {
		return false
	}
	if len(e.active) == 0 {
		// Everyone sleeps: jump the clock to the earliest wake.
		e.slot = e.sleep[0].wake
	}
	end := e.slot + windowSlots
	for len(e.sleep) > 0 && e.sleep[0].wake < end {
		var s sleeper
		e.sleep, s = sleepPop(e.sleep)
		e.at[s.k] = s.wake
		e.active = append(e.active, s.k)
	}
	for idx := 0; idx < len(e.active); idx++ {
		k := e.active[idx]
		switch e.runWindow(k, end) {
		case instActive:
		case instErr:
			return false
		default: // instSleep, instRetired: swap-remove from the dense set
			last := len(e.active) - 1
			e.active[idx] = e.active[last]
			e.active = e.active[:last]
			idx--
		}
	}
	e.slot = end
	return e.live > 0 && e.err == nil
}

type instStatus int

const (
	instActive instStatus = iota
	instSleep
	instRetired
	instErr
)

// bind points the view at instance k.
func (e *engine) bind(k int) {
	v := e.v
	v.st = &e.st[k]
	v.hm = &e.hot[k]
	v.lat = &e.ms[k]
	v.voq = e.voq[k*e.n*e.wm : (k+1)*e.n*e.wm]
	if e.voqByOut != nil {
		v.voqByOut = e.voqByOut[k*e.m*e.wn : (k+1)*e.m*e.wn]
	}
	v.outFree = e.outFree[k*e.wm : (k+1)*e.wm]
	v.outBusy = e.outBusy[k*e.wm : (k+1)*e.wm]
	v.iqHdr = e.iqHdr[k*e.nm : (k+1)*e.nm]
	v.iq = e.iq[k*e.nm*e.icap : (k+1)*e.nm*e.icap]
	v.oqHdr = e.oqHdr[k*e.m : (k+1)*e.m]
	v.oq = e.oq[k*e.m*e.ocap : (k+1)*e.m*e.ocap]
	if e.cfg.RecordSeries {
		v.series = e.series[k]
	}
	if e.iqID != nil {
		v.iqID = e.iqID[k*e.nm*e.icap : (k+1)*e.nm*e.icap]
		v.oqID = e.oqID[k*e.m*e.ocap : (k+1)*e.m*e.ocap]
		v.iqHV = e.iqHV[k*e.nm : (k+1)*e.nm]
	}
	e.host.bindLanes(k)
}

// runWindow simulates instance k from its current slot up to the window
// end: admissions, Speedup kernel cycles, transmission, occupancy
// sampling and the quiescent fast path, slot by slot, on the bound view.
func (e *engine) runWindow(k int32, end int) instStatus {
	kk := int(k)
	e.bind(kk)
	v := e.v
	seq := e.seqs[kk]
	nx := e.next[kk]
	horizon := e.horizon[kk]
	st := v.st
	hm := v.hm
	T := e.at[kk]
	// Window-local metric accumulators: the per-packet counters are
	// register adds here and a single flush into hm at every exit (all
	// Metrics fields are sums, so accumulation order is free).
	var aArr, aArrV, aAcc, aAccV, aRej, aRejV, aPre, aPreV, tSent, tBen, oIn, oX, oOut, oSamp int64
	flush := func() {
		hm.arrived += aArr
		hm.arrivedVal += aArrV
		hm.accepted += aAcc
		hm.acceptedVal += aAccV
		hm.rejected += aRej
		hm.rejectedVal += aRejV
		hm.preemptedIn += aPre
		hm.preemptedInVal += aPreV
		hm.sent += tSent
		hm.benefit += tBen
		hm.inOccup += oIn
		hm.crossOccup += oX
		hm.outOccup += oOut
		hm.sampled += oSamp
	}
	for {
		// Admissions: the unit families accept iff the target queue has
		// room; the weighted (ByValue) families additionally preempt the
		// queue's least valuable packet when it is full and strictly worse
		// (queue.Ring.PushPreempt semantics — occupancy is unchanged by a
		// preempting admission, so the index bits stay put).
		for nx < len(seq) && seq[nx].Arrival == T {
			p := &seq[nx]
			nx++
			if uint(p.In) >= uint(v.n) || uint(p.Out) >= uint(v.m) || p.Value < 1 {
				e.err = fmt.Errorf("fleet: instance %d: bad packet %v", kk, *p)
				return instErr
			}
			aArr++
			aArrV += p.Value
			q := p.In*v.m + p.Out
			h := &v.iqHdr[q]
			if v.weighted {
				pre := false
				var preV int64
				if h.n >= v.inBuf {
					ti := q*v.icap + int((h.head+h.n-1)&v.icapM)
					tv := v.iq[ti].v
					if tv >= p.Value {
						aRej++
						aRejV += p.Value
						continue
					}
					h.n--
					pre, preV = true, tv
				}
				// Shallow rings make depths 0/1 the common insert cases;
				// both are inlined here and yield the new head value
				// without reloading the ring.
				np := pkt{v: p.Value, a: int32(p.Arrival)}
				switch h.n {
				case 0:
					ringInsert0(v.iq, v.iqID, h, q*v.icap, np, p.ID)
					v.iqHV[q] = np.v
				case 1:
					b := q * v.icap
					v.iqHV[q] = ringInsert1(v.iq[b:], v.iqID[b:], h, v.icapM, np, p.ID)
				default:
					ringInsert(v.iq, v.iqID, h, q*v.icap, v.icapM, np, p.ID)
					v.iqHV[q] = v.iq[q*v.icap+int(h.head)].v
				}
				if pre {
					aAcc++
					aAccV += p.Value
					aPre++
					aPreV += preV
					continue
				}
			} else {
				if h.n >= v.inBuf {
					aRej++
					aRejV += p.Value
					continue
				}
				v.iq[q*v.icap+int((h.head+h.n)&v.icapM)] = pkt{v: p.Value, a: int32(p.Arrival)}
				h.n++
			}
			setBit(v.voq, v.wm, p.In, p.Out)
			if v.wantByOut {
				setBit(v.voqByOut, v.wn, p.Out, p.In)
			}
			st.inCount++
			aAcc++
			aAccV += p.Value
		}

		e.host.schedule(T)
		if e.err != nil {
			// A weighted transfer hit an ineligible full destination (only
			// possible with a sub-1 user beta, where the scalar engine
			// errors identically).
			return instErr
		}

		// Transmission: every non-empty output queue sends its head.
		for wdx, w := range v.outBusy {
			for ; w != 0; w &= w - 1 {
				tz := bits.TrailingZeros64(w)
				b := uint64(1) << uint(tz)
				j := wdx<<6 | tz
				h := &v.oqHdr[j]
				var p pkt
				if v.direct[wdx]&b != 0 {
					p = v.pend[j]
					v.direct[wdx] &^= b
				} else {
					p = v.oq[j*v.ocap+int(h.head)]
				}
				h.head = (h.head + 1) & v.ocapM
				h.n--
				st.outCount--
				v.outFree[wdx] |= b
				if h.n == 0 {
					v.outBusy[wdx] &^= b
				}
				tSent++
				tBen += p.v
				if v.recLat {
					v.lat.RecordLatency(T - int(p.a))
				}
				if v.recSer {
					v.series[T] += p.v
				}
			}
		}

		oIn += int64(st.inCount)
		oX += int64(st.crossCount)
		oOut += int64(st.outCount)
		oSamp++

		if e.cfg.Validate {
			if err := e.validate(kk, T); err != nil {
				e.err = err
				return instErr
			}
		}

		// Quiescent fast path: with no input-side (and no crosspoint)
		// packets no kernel cycle can produce a transfer, so the stretch
		// until the next arrival is pure output drain advanced in closed
		// form. The ported kernels' only slot-dependent state is derived
		// from the clock (see kernels.go), so no per-policy idle hook is
		// needed. While crosspoints hold packets the crossbar output
		// subphase still makes policy-specific choices, so those slots run
		// densely, exactly as in the scalar engine.
		if !e.cfg.Dense && st.inCount == 0 && st.crossCount == 0 {
			to := horizon
			if nx < len(seq) && seq[nx].Arrival < to {
				to = seq[nx].Arrival
			}
			if jump := to - (T + 1); jump > 0 {
				v.quiesce(T, jump)
				if e.cfg.Validate {
					if err := e.validate(kk, T+jump); err != nil {
						e.err = fmt.Errorf("after quiescent jump: %w", err)
						return instErr
					}
				}
				T += jump
			}
		}
		T++
		if T >= horizon {
			flush()
			e.next[kk] = nx
			return e.retire(k)
		}
		if T >= end {
			flush()
			e.next[kk] = nx
			e.at[kk] = T
			if T > end {
				// A quiescent jump crossed the window boundary: nothing
				// happens until slot T, so skip the windows in between.
				e.sleep = sleepPush(e.sleep, sleeper{wake: T, k: k})
				return instSleep
			}
			return instActive
		}
	}
}

// quiesce advances the bound instance across `jump` arrival-free
// drain-only slots in closed form, mirroring the scalar engines' quiesce:
// each non-empty output queue transmits one head packet per slot until it
// empties, and the occupancy integral gains Σ_{x=1..min(jump,L)} (L-x)
// per queue.
func (v *view) quiesce(T, jump int) {
	st := v.st
	hm := v.hm
	for wdx, w := range v.outBusy {
		for ; w != 0; w &= w - 1 {
			j := wdx<<6 | bits.TrailingZeros64(w)
			h := &v.oqHdr[j]
			l := int(h.n)
			d := min(l, jump)
			for x := 1; x <= d; x++ {
				p := v.oq[j*v.ocap+int(h.head)]
				h.head = (h.head + 1) & v.ocapM
				h.n--
				hm.sent++
				hm.benefit += p.v
				if v.recLat {
					v.lat.RecordLatency(T + x - int(p.a))
				}
				if v.recSer {
					v.series[T+x] += p.v
				}
			}
			st.outCount -= int32(d)
			hm.outOccup += int64(d)*int64(l) - int64(d)*int64(d+1)/2
			if h.n == 0 {
				v.outBusy.Clear(j)
			}
		}
	}
	hm.sampled += int64(jump)
}

// retire folds instance k's metric accumulators into its Metrics and
// records the final Result.
func (e *engine) retire(k int32) instStatus {
	if err := checkResidual(int(k), e.seqs[k], e.next[k], e.horizon[k]); err != nil {
		e.err = err
		return instErr
	}
	hm := &e.hot[k]
	m := &e.ms[k]
	m.Arrived, m.ArrivedValue = hm.arrived, hm.arrivedVal
	m.Accepted, m.AcceptedValue = hm.accepted, hm.acceptedVal
	m.Rejected, m.RejectedValue = hm.rejected, hm.rejectedVal
	m.Transferred, m.TransferredCross = hm.transferred, hm.transferredCross
	m.Sent, m.Benefit = hm.sent, hm.benefit
	m.PreemptedInput, m.PreemptedInputValue = hm.preemptedIn, hm.preemptedInVal
	m.PreemptedCross, m.PreemptedCrossValue = hm.preemptedCross, hm.preemptedCrossVal
	m.PreemptedOutput, m.PreemptedOutputValue = hm.preemptedOut, hm.preemptedOutVal
	m.InputOccupSum, m.CrossOccupSum, m.OutputOccupSum = hm.inOccup, hm.crossOccup, hm.outOccup
	m.AddSlotSamples(hm.sampled)
	if e.cfg.RecordSeries {
		m.SlotBenefit = e.series[k]
	}
	if e.cfg.Validate {
		st := &e.st[k]
		residual := int64(st.inCount) + int64(st.crossCount) + int64(st.outCount)
		preempted := m.PreemptedInput + m.PreemptedCross + m.PreemptedOutput
		if m.Accepted != m.Sent+preempted+residual {
			e.err = fmt.Errorf("fleet: instance %d: conservation violated: accepted=%d sent=%d preempted=%d residual=%d",
				k, m.Accepted, m.Sent, preempted, residual)
			return instErr
		}
	}
	e.results[k] = &switchsim.Result{Policy: e.policy, Cfg: e.cfg, Slots: e.horizon[k], M: *m}
	e.live--
	return instRetired
}

// validate cross-checks instance k's occupancy index and counters against
// the ring contents (full rescan; Validate mode only).
func (e *engine) validate(k, T int) error {
	var in, out int32
	st := &e.st[k]
	outFree := bitset.Mask(e.outFree[k*e.wm : (k+1)*e.wm])
	outBusy := bitset.Mask(e.outBusy[k*e.wm : (k+1)*e.wm])
	for i := 0; i < e.n; i++ {
		row := bitset.Mask(e.voq[(k*e.n+i)*e.wm : (k*e.n+i+1)*e.wm])
		for j := 0; j < e.m; j++ {
			q := k*e.nm + i*e.m + j
			l := e.iqHdr[q].n
			in += l
			if l < 0 || l > e.inBuf {
				return fmt.Errorf("fleet: slot %d instance %d: IQ[%d][%d] length %d out of range", T, k, i, j, l)
			}
			if got, want := row.Test(j), l > 0; got != want {
				return fmt.Errorf("fleet: slot %d instance %d: VOQ[%d] bit %d = %v, len=%d", T, k, i, j, got, l)
			}
			if e.iqID != nil && !ringOrdered(e.iq, e.iqID, e.iqHdr[q], q*e.icap, int32(e.icap-1)) {
				return fmt.Errorf("fleet: slot %d instance %d: IQ[%d][%d] not in ByValue order", T, k, i, j)
			}
		}
	}
	for j := 0; j < e.m; j++ {
		l := e.oqHdr[k*e.m+j].n
		out += l
		if l < 0 || l > e.outBuf {
			return fmt.Errorf("fleet: slot %d instance %d: OQ[%d] length %d out of range", T, k, j, l)
		}
		if e.oqID != nil && !ringOrdered(e.oq, e.oqID, e.oqHdr[k*e.m+j], (k*e.m+j)*e.ocap, int32(e.ocap-1)) {
			return fmt.Errorf("fleet: slot %d instance %d: OQ[%d] not in ByValue order", T, k, j)
		}
		if got, want := outFree.Test(j), l < e.outBuf; got != want {
			return fmt.Errorf("fleet: slot %d instance %d: OutFree bit %d = %v, len=%d", T, k, j, got, l)
		}
		if got, want := outBusy.Test(j), l > 0; got != want {
			return fmt.Errorf("fleet: slot %d instance %d: OutBusy bit %d = %v, len=%d", T, k, j, got, l)
		}
	}
	if in != st.inCount || out != st.outCount {
		return fmt.Errorf("fleet: slot %d instance %d: counters (in=%d,out=%d) but queues hold (%d,%d)",
			T, k, st.inCount, st.outCount, in, out)
	}
	return e.host.checkLanes(k, T)
}

// Results returns one Result per loaded instance (in input order) once
// every instance has retired. It errors if the fleet is still running or a
// stepping error is pending. The backing array is reused by the next
// Reset, so callers keeping Results across batches must copy.
func (e *engine) Results() ([]*switchsim.Result, error) {
	if e.err != nil {
		return nil, e.err
	}
	if e.live > 0 {
		return nil, fmt.Errorf("fleet: %d instances still live", e.live)
	}
	return e.results[:e.cur], nil
}

// run loads seqs, steps the fleet until it drains and flushes the fleet
// probes: the runners' batched path.
func (e *engine) run(seqs []packet.Sequence) ([]*switchsim.Result, error) {
	if err := e.Reset(seqs); err != nil {
		return nil, err
	}
	passBefore := e.v.passCount
	for e.Step() {
	}
	out, err := e.Results()
	if err != nil {
		return nil, err
	}
	if p := fleetProbes.Load(); p != nil {
		var slots int64
		for _, res := range out {
			slots += int64(res.Slots)
		}
		p.RecordKernel(int64(len(seqs)), slots, e.v.passCount-passBefore)
	}
	return out, nil
}

// ringInsert0 is the depth-0 ringInsert special case, small enough to
// inline at the transfer sites where an empty destination ring is the
// common case (the new packet is trivially the head).
func ringInsert0(buf []pkt, ids []int64, h *qhdr, base int, p pkt, id int64) {
	x := base + int(h.head)
	buf[x] = p
	ids[x] = id
	h.n = 1
}

// ringInsert1 is the depth-1 ringInsert special case (buf/ids already
// sliced at the ring base), inlined at the admission sites (shallow input
// rings make depth 1 the common case there). It reports the new head
// value so weighted callers can refresh their head-value lane without
// reloading the ring.
func ringInsert1(buf []pkt, ids []int64, h *qhdr, capM int32, p pkt, id int64) int64 {
	x0 := int(h.head)
	hv := buf[x0].v
	off := int32(1)
	if hv < p.v || (hv == p.v && ids[x0] >= id) {
		h.head = (h.head - 1) & capM
		off = 0
		hv = p.v
	}
	x := int((h.head + off) & capM)
	buf[x] = p
	ids[x] = id
	h.n = 2
	return hv
}

// ringInsert places (p, id) into the ByValue ring at base..base+cap-1
// keeping (value desc, ID asc) order, reproducing queue.Ring.insert: a
// binary search finds the slot, then the shorter side of the ring shifts
// by one to open it. The header must have room (h.n < capacity).
func ringInsert(buf []pkt, ids []int64, h *qhdr, base int, capM int32, p pkt, id int64) {
	n := h.n
	// Weighted rings are shallow in practice (buffer depths of a few
	// packets), so the depth-0/1 cases skip the search-and-shift
	// machinery. Both leave the same head-relative contents as the
	// general path.
	if n == 0 {
		x := base + int(h.head)
		buf[x] = p
		ids[x] = id
		h.n = 1
		return
	}
	if n == 1 {
		x0 := base + int(h.head)
		var x int
		if bv := buf[x0].v; bv > p.v || (bv == p.v && ids[x0] < id) {
			x = base + int((h.head+1)&capM)
		} else {
			h.head = (h.head - 1) & capM
			x = base + int(h.head)
		}
		buf[x] = p
		ids[x] = id
		h.n = 2
		return
	}
	lo, hi := int32(0), n
	for lo < hi {
		mid := (lo + hi) / 2
		x := base + int((h.head+mid)&capM)
		if bv := buf[x].v; bv > p.v || (bv == p.v && ids[x] < id) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo <= n-lo {
		// Shift the head segment [0, lo) one slot back.
		h.head = (h.head - 1) & capM
		for k := int32(0); k < lo; k++ {
			dst := base + int((h.head+k)&capM)
			src := base + int((h.head+k+1)&capM)
			buf[dst] = buf[src]
			ids[dst] = ids[src]
		}
	} else {
		// Shift the tail segment [lo, n) one slot forward.
		for k := n; k > lo; k-- {
			dst := base + int((h.head+k)&capM)
			src := base + int((h.head+k-1)&capM)
			buf[dst] = buf[src]
			ids[dst] = ids[src]
		}
	}
	x := base + int((h.head+lo)&capM)
	buf[x] = p
	ids[x] = id
	h.n++
}

// ringOrdered reports whether the ring segment holds ByValue order
// (value descending, ties by ascending ID) from head to tail.
func ringOrdered(buf []pkt, ids []int64, h qhdr, base int, capM int32) bool {
	for x := int32(1); x < h.n; x++ {
		a := base + int((h.head+x-1)&capM)
		b := base + int((h.head+x)&capM)
		if buf[a].v < buf[b].v || (buf[a].v == buf[b].v && ids[a] >= ids[b]) {
			return false
		}
	}
	return true
}
