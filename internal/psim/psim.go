// Package psim is the conservative parallel simulation engine: it
// partitions an rdpcore world by station into R regions, drives each
// region on its own sim.Kernel (own seeded RNG, own event free list),
// and synchronizes the regions in lock-step windows of width equal to
// the lookahead — the minimum wired latency between regions, in the
// style of Chandy–Misra null-message algorithms.
//
// Within a window [T, T+lookahead) every region executes its pending
// events independently: no wired frame sent inside the window can
// arrive at another region before T+lookahead, wireless traffic never
// leaves a region (an MH talks only to the station of its current
// cell), and a host migrating between regions is radio-silent for
// exactly one lookahead while its transfer frame is in flight. Each
// region parks the cross-region frames it emits in its own
// (arrival, seq)-ordered heap — drained by the worker that stepped it,
// at the barrier, with no coordinator-side copying — and before the
// next window opens the coordinator k-way-merges the heap tops in
// deterministic (arrival time, source region, sequence) order onto the
// destination regions' inbound lists, which the stepping workers
// schedule on their kernels before the window runs. Because each
// region's event order and RNG stream depend only on its own inputs —
// and those inputs are merged deterministically — a run with W worker
// threads is byte-identical to the same partition run serially
// (Workers=1), and a different worker count can never change a metric.
// The same argument covers how regions are dealt to workers: the
// size-aware static plan (regions weighted by resident-host count,
// largest-first onto the lightest worker) has exactly one worker step
// each region per window, so it cannot change a byte of output — only
// wall-clock time.
//
// Mobile hosts are driven by pre-generated per-host scripts (AddMH,
// or AddMHs for bulk parallel construction) rather than live
// callbacks, so the workload itself is independent of the partition:
// the same seed issues the same requests with the same identifiers no
// matter how many regions execute them.
package psim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/rdpcore"
	"repro/internal/sim"
)

// Config parameterizes a partitioned world.
type Config struct {
	// Base is the world configuration every region inherits. The global
	// station set is Base.Stations (or ids.MSS(1..NumMSS)); servers
	// likewise. Base.Seed drives the per-region kernels through SubSeed.
	Base rdpcore.Config
	// Regions is the number of partitions R.
	Regions int
	// Workers is the number of OS threads stepping regions. 0 means
	// GOMAXPROCS, 1 means serial execution on the calling goroutine —
	// the reference the determinism tests compare against. Workers never
	// affects results, only wall-clock time.
	Workers int
	// Lookahead is the conservative window width. Every cross-region
	// wired latency sample must be >= Lookahead (the region link panics
	// otherwise); the minimum wired latency of the topology is the
	// largest sound choice.
	Lookahead time.Duration
	// AssignStation maps a station to its region; nil assigns contiguous
	// blocks of the station list. Every region must receive at least one
	// station.
	AssignStation func(ids.MSS) int
	// AssignServer maps a server to its region; nil deals servers
	// round-robin.
	AssignServer func(ids.Server) int
}

// frame is one unit of cross-region traffic — a wired message or a
// migrating host — parked at its source region until its arrival window.
// Frames are ordered by (arrival, src, seq): arrival for causality, the
// (src, seq) pair to break same-instant ties identically on every run.
// A wired frame carries its message by value and is delivered through
// the destination region's recycled records; only a host transfer, which
// is rare, carries a closure.
type frame struct {
	arrival sim.Time
	src     int
	seq     uint64
	dst     int
	wired   netsim.CrossFrame
	move    func() // set for a host transfer instead of wired
}

// region is one partition: a full rdpcore world over the region's
// stations and servers, on a private kernel.
type region struct {
	pw     *World
	idx    int
	kernel *sim.Kernel
	world  *rdpcore.World
	link   *netsim.RegionLink
	// outbox collects the frames emitted during the current window; the
	// worker that stepped the region drains it into parked at the
	// barrier. Only the region's own worker touches either inside a
	// window, so collection costs the coordinator nothing.
	outbox []frame
	// parked holds drained frames ordered by (arrival, seq) — src is
	// constant per region — until the coordinator's k-way merge moves
	// them onto their destination regions' inbound lists.
	parked frameHeap
	// inbound holds the frames the coordinator's merge gave this region
	// for the coming window, in merge order. The worker that steps the
	// region schedules them first, with its arena attached, so the
	// kernel's insertion order is the merge order.
	inbound []frame
	// crossCalls delivers inbound wired frames through recycled records
	// instead of a closure each. Only the goroutine stepping the region
	// touches it.
	crossCalls  *sim.Calls[netsim.CrossFrame]
	nextSeq     uint64
	issued      []Issued
	crossFrames int64
	// stepPanic records a panic recovered during this region's window
	// step; the coordinator re-raises it after the barrier so a dying
	// region cannot deadlock the other workers.
	stepPanic any
}

// World is the partitioned simulation.
type World struct {
	cfg           Config
	lookahead     sim.Time
	regions       []*region
	stationRegion map[ids.MSS]int
	serverRegion  map[ids.Server]int
	scripts       map[ids.MH]*script
	workers       int
}

// New builds a partitioned world; with Workers > 1 the regions are
// constructed in parallel (each region's kernel, substrates and world
// are fully independent, so construction order across regions is not
// observable). It panics on configurations the engine cannot run
// correctly — see the validation messages for the exact rules (the
// important one: no MH-side timers, because a host's timers cannot
// follow it across a region transfer).
func New(cfg Config) *World {
	if cfg.Regions < 1 {
		panic("psim: Regions must be >= 1")
	}
	if cfg.Lookahead <= 0 {
		panic("psim: Lookahead must be positive")
	}
	validateBase(cfg.Base, cfg.Regions)

	stations := cfg.Base.Stations
	if stations == nil {
		for i := 1; i <= cfg.Base.NumMSS; i++ {
			stations = append(stations, ids.MSS(i))
		}
	}
	servers := cfg.Base.ServerIDs
	if servers == nil {
		for i := 1; i <= cfg.Base.NumServers; i++ {
			servers = append(servers, ids.Server(i))
		}
	}
	if cfg.Regions > len(stations) {
		panic(fmt.Sprintf("psim: %d regions for %d stations", cfg.Regions, len(stations)))
	}

	pw := &World{
		cfg:           cfg,
		lookahead:     sim.Time(cfg.Lookahead),
		stationRegion: make(map[ids.MSS]int, len(stations)),
		serverRegion:  make(map[ids.Server]int, len(servers)),
		scripts:       make(map[ids.MH]*script),
	}
	regionStations := make([][]ids.MSS, cfg.Regions)
	regionServers := make([][]ids.Server, cfg.Regions)
	for i, id := range stations {
		r := i * cfg.Regions / len(stations)
		if cfg.AssignStation != nil {
			r = cfg.AssignStation(id)
		}
		if r < 0 || r >= cfg.Regions {
			panic(fmt.Sprintf("psim: station %v assigned to region %d of %d", id, r, cfg.Regions))
		}
		pw.stationRegion[id] = r
		regionStations[r] = append(regionStations[r], id)
	}
	for i, id := range servers {
		r := i % cfg.Regions
		if cfg.AssignServer != nil {
			r = cfg.AssignServer(id)
		}
		if r < 0 || r >= cfg.Regions {
			panic(fmt.Sprintf("psim: server %v assigned to region %d of %d", id, r, cfg.Regions))
		}
		pw.serverRegion[id] = r
		regionServers[r] = append(regionServers[r], id)
	}
	for idx := 0; idx < cfg.Regions; idx++ {
		if len(regionStations[idx]) == 0 {
			panic(fmt.Sprintf("psim: region %d has no stations", idx))
		}
	}

	pw.workers = cfg.Workers
	if pw.workers <= 0 {
		pw.workers = runtime.GOMAXPROCS(0)
	}
	if pw.workers > cfg.Regions {
		pw.workers = cfg.Regions
	}

	pw.regions = make([]*region, cfg.Regions)
	pw.parfor(cfg.Regions, func(idx int) {
		pw.regions[idx] = pw.buildRegion(idx, regionStations[idx], regionServers[idx])
	})
	return pw
}

// parfor runs fn(0..n-1) on up to pw.workers goroutines in contiguous
// chunks; with one worker it runs inline. fn must only touch state owned
// by its index — parfor provides the fork/join happens-before edges and
// nothing else.
func (pw *World) parfor(n int, fn func(i int)) {
	w := pw.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for c := 0; c < w; c++ {
		lo, hi := c*n/w, (c+1)*n/w
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// parforChunks is parfor with chunk visibility: fn is called once per
// chunk with its worker slot and index range, so callers can accumulate
// into per-chunk partials and reduce them deterministically afterwards.
func (pw *World) parforChunks(n int, fn func(chunk, lo, hi int)) int {
	w := pw.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return 1
	}
	var wg sync.WaitGroup
	for c := 0; c < w; c++ {
		lo, hi := c*n/w, (c+1)*n/w
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			fn(c, lo, hi)
		}(c, lo, hi)
	}
	wg.Wait()
	return w
}

// buildRegion assembles one partition: kernel, intra-region wired
// substrate, the cross-region link wrapped around it, and the region's
// rdpcore world. Construction order is fixed so each kernel's RNG
// stream is identical on every run.
func (pw *World) buildRegion(idx int, stations []ids.MSS, servers []ids.Server) *region {
	k := sim.NewKernel(SubSeed(pw.cfg.Base.Seed, int64(idx)))
	members := make([]ids.NodeID, 0, len(stations)+len(servers))
	for _, id := range stations {
		members = append(members, id.Node())
	}
	for _, id := range servers {
		members = append(members, id.Node())
	}
	r := &region{pw: pw, idx: idx, kernel: k}
	// The substrates exist before the region's world, which builds its
	// radio itself: the wired drops reach the world's accounting through
	// r.world, set below while construction is still single-threaded.
	wired := netsim.NewWired(k, members, netsim.WiredConfig{
		Latency:     pw.cfg.Base.WiredLatency,
		Causal:      pw.cfg.Base.Causal,
		PairLatency: pw.cfg.Base.WiredPairLatency,
		QueueLimit:  pw.cfg.Base.WiredQueueLimit,
		OnDrop:      func(layer netsim.Layer, kind netsim.EventKind) { r.world.CountDrop(layer, kind) },
	}, pw.cfg.Base.Observer)
	r.link = netsim.NewRegionLink(k, netsim.RegionLinkConfig{
		Local:        wired,
		LocalMembers: members,
		Latency:      pw.cfg.Base.WiredLatency,
		PairLatency:  pw.cfg.Base.WiredPairLatency,
		Lookahead:    pw.cfg.Lookahead,
		Emit:         func(f netsim.CrossFrame) { pw.emitWired(r, f) },
	}, pw.cfg.Base.Observer)
	r.crossCalls = sim.NewCalls(k, r.link.Deliver)
	rcfg := pw.cfg.Base
	rcfg.Stations = stations
	// Non-nil even when the region hosts no servers: a nil ServerIDs
	// would fall back to the default 1..NumServers construction.
	rcfg.ServerIDs = append([]ids.Server{}, servers...)
	r.world = rdpcore.NewWorldWith(k, rcfg, r.link, nil)
	return r
}

// validateBase rejects configurations the partitioned engine cannot
// honor.
func validateBase(base rdpcore.Config, regions int) {
	if base.WiredFaults != nil || base.WiredARQ.Enabled {
		panic("psim: wired faults/ARQ are not supported across regions")
	}
	if base.WiredSeq != nil || base.WirelessSeq != nil {
		panic("psim: adversarial sequencers are not supported")
	}
	if regions == 1 {
		return
	}
	// A mobile host's self-armed timers (retry, refresh, deadline, busy
	// backoff) are events on the kernel that scheduled them. DetachMH
	// voids them by moving the host's timer generation on, but they still
	// fire, on the old region's kernel and worker: each would read that
	// generation while the host's new region writes it. Refusing host
	// timers here is what lets the generation live on the host. Scripted
	// workloads replace them.
	if base.RequestTimeout != 0 || base.GreetRefresh != 0 ||
		base.RequestDeadline != 0 || base.BusyRetryBase != 0 {
		panic("psim: MH-side timers (RequestTimeout/GreetRefresh/RequestDeadline/BusyRetryBase) must be zero with Regions > 1")
	}
	if base.Observer != nil {
		panic("psim: a shared Config.Observer would run on multiple region threads; use per-region stats instead")
	}
}

// nodeRegion maps a wired host to its owning region.
func (pw *World) nodeRegion(n ids.NodeID) int {
	switch n.Kind {
	case ids.KindMSS:
		if r, ok := pw.stationRegion[ids.MSS(n.Num)]; ok {
			return r
		}
	case ids.KindServer:
		if r, ok := pw.serverRegion[ids.Server(n.Num)]; ok {
			return r
		}
	}
	panic(fmt.Sprintf("psim: %v belongs to no region", n))
}

// emitWired parks an outbound wired frame in the source region's
// outbox. Runs on the source region's worker, inside a window.
func (pw *World) emitWired(r *region, f netsim.CrossFrame) {
	r.outbox = append(r.outbox, frame{
		arrival: f.Arrival,
		src:     r.idx,
		seq:     r.nextSeq,
		dst:     pw.nodeRegion(f.To),
		wired:   f,
	})
	r.nextSeq++
}

// drain moves the window's outbox into the region's parked heap — the
// per-region half of the barrier, executed by whichever worker stepped
// the region, so frame collection parallelizes with the windows
// themselves and the coordinator never copies a frame.
func (r *region) drain() {
	if len(r.outbox) == 0 {
		return
	}
	r.crossFrames += int64(len(r.outbox))
	for i := range r.outbox {
		r.parked.push(r.outbox[i])
		r.outbox[i] = frame{}
	}
	r.outbox = r.outbox[:0]
}

// RunUntil advances the whole partitioned simulation to instant d,
// window by window. Like the serial kernel's RunUntil, events stamped
// exactly d still execute, and every region's clock reads d afterwards.
// A panic inside a region (serial or parallel) propagates to the
// caller; with a pool running, the workers are shut down first so the
// barrier cannot deadlock.
func (pw *World) RunUntil(d time.Duration) {
	stepLimit := sim.Time(d) + 1
	pool := pw.startPool()
	defer pool.stop()
	var arena *sim.Arena
	if pool == nil {
		// Serial: all regions step on this goroutine in turn, so one
		// shared arena recycles every region's retired events.
		arena = sim.NewArena()
	}
	for {
		t, ok := pw.low()
		if !ok || t >= stepLimit {
			break
		}
		end := t + pw.lookahead
		if end > stepLimit {
			end = stepLimit
		}
		pw.inject(end)
		if pool == nil {
			for _, r := range pw.regions {
				stepRegion(r, end, arena)
			}
			pw.raiseRegionPanics()
		} else {
			pool.run(end)
		}
	}
	for _, r := range pw.regions {
		r.kernel.AdvanceTo(sim.Time(d))
	}
}

// stepRegion executes one region's window — the merged inbound frames
// scheduled, kernel steps, then the barrier drain — with the worker's
// shared arena attached and any panic captured for deterministic re-raise
// after the barrier.
func stepRegion(r *region, end sim.Time, arena *sim.Arena) {
	defer func() {
		r.kernel.SetArena(nil)
		if v := recover(); v != nil {
			r.stepPanic = v
		}
	}()
	r.kernel.SetArena(arena)
	r.scheduleInbound()
	r.kernel.StepUntil(end)
	r.drain()
}

// scheduleInbound puts the window's inbound frames on the region's
// kernel in merge order, each at its arrival instant.
func (r *region) scheduleInbound() {
	for i := range r.inbound {
		f := &r.inbound[i]
		if f.move != nil {
			r.kernel.DeferAt(f.arrival, f.move)
		} else {
			r.crossCalls.DeferAt(f.arrival, f.wired)
		}
		*f = frame{}
	}
	r.inbound = r.inbound[:0]
}

// raiseRegionPanics re-raises the first (lowest-region-index) panic
// captured during the window, wrapped with its region. Scanning in
// region order keeps the propagated panic deterministic even when
// several regions die in the same window on different workers.
func (pw *World) raiseRegionPanics() {
	for _, r := range pw.regions {
		if v := r.stepPanic; v != nil {
			r.stepPanic = nil
			panic(fmt.Sprintf("psim: region %d panicked: %v", r.idx, v))
		}
	}
}

// low returns the earliest instant at which anything can happen: the
// minimum over region kernels' next events and parked frame arrivals.
// Starting each window there (rather than at the previous window's end)
// skips idle stretches in one hop.
func (pw *World) low() (sim.Time, bool) {
	var best sim.Time
	ok := false
	for _, r := range pw.regions {
		if at, has := r.kernel.NextEventAt(); has && (!ok || at < best) {
			best, ok = at, true
		}
		if len(r.parked) > 0 {
			if a := r.parked[0].arrival; !ok || a < best {
				best, ok = a, true
			}
		}
	}
	return best, ok
}

// inject k-way-merges the regions' parked heaps, moving every frame
// with arrival < end onto its destination region's inbound list in
// (arrival, src, seq) order. It runs between windows, single-threaded;
// the worker that steps the destination schedules the list in that
// order, and kernel insertion order fixes the tie-break among
// same-instant frames, making the merge deterministic. Each heap's top
// is its region's minimum, so comparing tops yields the same global
// order the old coordinator-side heap did.
func (pw *World) inject(end sim.Time) {
	for {
		best := -1
		for i, r := range pw.regions {
			if len(r.parked) == 0 || r.parked[0].arrival >= end {
				continue
			}
			if best < 0 || frameLess(r.parked[0], pw.regions[best].parked[0]) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		f := pw.regions[best].parked.pop()
		dr := pw.regions[f.dst]
		dr.inbound = append(dr.inbound, f)
	}
}

// pool runs the per-window region stepping on persistent worker
// goroutines. Regions are dealt by the size-aware static plan; the
// barrier is two channel rounds per window (start fan-out, done
// fan-in), which also carry the happens-before edges that hand region
// state between the coordinator and the workers. Each worker owns a
// sim.Arena, so every region it steps recycles events from one shared
// pool.
type pool struct {
	pw    *World
	start []chan sim.Time
	done  chan struct{}
	// plan is the static assignment: plan[w] lists the region indices
	// worker w steps each window.
	plan [][]int
}

// regionWeights returns each region's current step weight: one unit of
// baseline station load plus one per resident mobile host. Reading the
// region worlds is only safe between windows (or before the run).
func (pw *World) regionWeights() []int64 {
	weights := make([]int64, len(pw.regions))
	for i, r := range pw.regions {
		weights[i] = 1 + int64(len(r.world.MHs))
	}
	return weights
}

// balancePlan deals regions to workers with the longest-processing-time
// heuristic: regions sorted by descending weight (ties broken by lower
// index), each assigned to the currently lightest worker (ties broken
// by lower worker index). A region holding most of the hosts therefore
// gets a worker to itself while the small regions share the rest —
// round-robin dealing would chain it to whatever shares its stripe.
func balancePlan(weights []int64, workers int) [][]int {
	order := weightOrder(weights)
	plan := make([][]int, workers)
	load := make([]int64, workers)
	for _, ri := range order {
		w := 0
		for i := 1; i < workers; i++ {
			if load[i] < load[w] {
				w = i
			}
		}
		plan[w] = append(plan[w], ri)
		load[w] += weights[ri]
	}
	return plan
}

// weightOrder returns region indices sorted by (weight desc, index asc).
func weightOrder(weights []int64) []int {
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		wa, wb := weights[order[a]], weights[order[b]]
		if wa != wb {
			return wa > wb
		}
		return order[a] < order[b]
	})
	return order
}

// WorkerPlan returns the size-aware static assignment the pool would
// start with right now: plan[w] lists the region indices dealt to
// worker w, loads[w] the summed weights of those regions. It exists for
// the load-balance regression tests; the assignment never affects
// results, only wall-clock time.
func (pw *World) WorkerPlan() (plan [][]int, loads []int64) {
	weights := pw.regionWeights()
	plan = balancePlan(weights, pw.workers)
	loads = make([]int64, len(plan))
	for w, regs := range plan {
		for _, ri := range regs {
			loads[w] += weights[ri]
		}
	}
	return plan, loads
}

// RegionWeights returns each region's current step weight (1 + resident
// hosts), in region order. Call between RunUntil slices or before/after
// a run.
func (pw *World) RegionWeights() []int64 { return pw.regionWeights() }

func (pw *World) startPool() *pool {
	if pw.workers <= 1 {
		return nil
	}
	p := &pool{
		pw:   pw,
		done: make(chan struct{}, pw.workers),
		plan: balancePlan(pw.regionWeights(), pw.workers),
	}
	for w := 0; w < pw.workers; w++ {
		ch := make(chan sim.Time)
		p.start = append(p.start, ch)
		go p.worker(w, ch)
	}
	return p
}

// worker steps its regions every window until the start channel closes.
// The arena lives as long as the worker: every region it steps recycles
// retired events through it.
func (p *pool) worker(w int, ch chan sim.Time) {
	arena := sim.NewArena()
	for end := range ch {
		for _, ri := range p.plan[w] {
			stepRegion(p.pw.regions[ri], end, arena)
		}
		p.done <- struct{}{}
	}
}

func (p *pool) run(end sim.Time) {
	for _, ch := range p.start {
		ch <- end
	}
	for range p.start {
		<-p.done
	}
	p.pw.raiseRegionPanics()
}

func (p *pool) stop() {
	if p == nil {
		return
	}
	for _, ch := range p.start {
		close(ch)
	}
}

// frameHeap is a binary min-heap of frames ordered by
// (arrival, src, seq).
type frameHeap []frame

func frameLess(a, b frame) bool {
	if a.arrival != b.arrival {
		return a.arrival < b.arrival
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

func (h *frameHeap) push(f frame) {
	*h = append(*h, f)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !frameLess(f, q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = f
}

func (h *frameHeap) pop() frame {
	q := *h
	top := q[0]
	n := len(q) - 1
	f := q[n]
	q[n] = frame{}
	*h = q[:n]
	if n > 0 {
		q = q[:n]
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && frameLess(q[r], q[c]) {
				c = r
			}
			if !frameLess(q[c], f) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = f
	}
	h.maybeShrink(n)
	return top
}

// frameShrinkMinCap is the heap capacity below which pop never shrinks
// the backing array: steady-state parking stays allocation-free, and
// only a genuine cross-traffic burst trips the release path.
const frameShrinkMinCap = 1024

// maybeShrink halves the backing array once the heap drains below a
// quarter of its capacity, releasing a burst's frames (and the messages
// and transfers they pin) instead of holding the high-water mark for
// the rest of the run. Halving per shrink keeps the cost amortized O(1)
// per pop — the same policy as the kernel's event queue.
func (h *frameHeap) maybeShrink(n int) {
	c := cap(*h)
	if c < frameShrinkMinCap || n >= c/4 {
		return
	}
	nq := make(frameHeap, n, c/2)
	copy(nq, *h)
	*h = nq
}

// SubSeed derives region and per-entity seeds from a master seed
// (splitmix64 over the pair): independent streams that are stable
// across runs and partitions.
func SubSeed(seed, idx int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(idx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
