package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tiledcfd"
	"tiledcfd/internal/detect"
	"tiledcfd/internal/fam"
	"tiledcfd/internal/scf"
	"tiledcfd/internal/shard"
	"tiledcfd/internal/stream"
	"tiledcfd/internal/wire"
)

// serveSpec is one serving workload: the stack's shape and the load.
type serveSpec struct {
	shards, channels int
	window, frame    int     // decision window and wire frame, in samples
	snrDB            float64 // BPSK SNR on occupied channels
	prune            bool    // open frames carry per-channel alpha candidates
	offered          float64 // open-loop samples/s over all channels; 0 = closed loop
	// inFlight bounds a closed loop: a channel's next window is sent only
	// once at most inFlight-1 of its earlier windows await a decision, so
	// the queue, and with it latency at saturation, is set by the load
	// rather than by socket buffer sizes.
	inFlight int
	// elastic is how the workload's time figures follow the host's speed.
	elastic elasticity
}

// The serving daemon's defaults (cfdserve): fam, K=256, M=K/4, a
// 16384-sample window, cfar, backpressure, one shard.
const (
	serveK    = 256
	serveM    = 64
	cfarScale = 2
	// referenceStrips is how many feature-free candidate bins a pruned
	// channel carries for its CFAR floor.
	referenceStrips = 4
	symbolLen       = 8
	setupReps       = 21
	warmup          = time.Second
	// conns is the load generator's connection count, one sender
	// goroutine each: the host has two vCPUs.
	conns = 2
	// distinct is how many distinct windows each channel replays in turn.
	distinct = 4
	// maxLagP50 and minAchieved make an open-loop run invalid when the
	// generator could not keep its schedule or the server fell behind the
	// offered rate (a growing backlog). The guard is on the median lag:
	// on a shared host the lag's tail follows stalls of the whole VM
	// (p99 up to 280 ms in one 30-s run), which the due-time latency
	// already counts; a generator that cannot sustain the rate lags in
	// the typical moment.
	maxLagP50   = 5 * time.Millisecond
	minAchieved = 0.9
)

// saturate's figures follow the kernel one for one (elasticity 1): the
// fold is nine tenths of its CPU and has the kernel's instruction mix.
var saturate = serveSpec{
	shards: 1, channels: 8, window: 16384, frame: 2048,
	snrDB: -3, inFlight: 4, elastic: elasticity{rate: 1, cpu: 1},
}

// paced runs at a fixed absolute rate, about a third of the pruned
// stack's saturated rate on a 2-vCPU Xeon, so latency is measured well
// below saturation. Its rate is the schedule's, so it is not scaled; its
// CPU per window halved (1.82 to 0.97 ms) when the kernel's speed
// doubled, an elasticity near 0.8, but small host changes that move the
// kernel barely move it (scaling at 0.8 widened its spread in a steady
// phase from 0.03 to 0.08), hence 0.7.
var paced = serveSpec{
	shards: 2, channels: 32, window: 8192, frame: 512,
	snrDB: 0, prune: true, offered: 4e6, elastic: elasticity{rate: 0, cpu: 0.7},
}

func runServeSaturate(o options, out *outcome) error { return runServe(o, out, saturate) }
func runServePaced(o options, out *outcome) error    { return runServe(o, out, paced) }

// serveChannel is one channel's generated input and its batch reference.
type serveChannel struct {
	id       string
	occupied bool
	alphas   []int          // open-frame alpha candidates (nil = full plane)
	windows  [][]complex128 // cf32-exact samples, replayed window by window
	want     []detect.Decision
}

// serveInputs generates every channel's windows from the seed and
// computes each window's verdict with the batch estimator and decider,
// the reference the streaming stack must reproduce bit for bit.
func serveInputs(sp serveSpec, seed uint64, dec detect.Decider) ([]serveChannel, error) {
	cfg := tiledcfd.Config{K: serveK, M: serveM}
	symBin, err := cfg.AlphaBinForHz(1/float64(symbolLen), 1)
	if err != nil {
		return nil, err
	}
	// Occupied channel j transmits BPSK on its own carrier; channel 2j+1
	// is licensed to the same transmitter, which is absent there.
	carriers := carrierBins(seed, sp.channels/2, symBin)
	chans := make([]serveChannel, sp.channels)
	for c := range chans {
		ch := &chans[c]
		ch.id = fmt.Sprintf("ch%02d", c)
		ch.occupied = c%2 == 0
		fc := float64(carriers[c/2]) / serveK
		if sp.prune {
			if ch.alphas, err = candidateBins(cfg, fc, symBin); err != nil {
				return nil, err
			}
		}
		n := distinct * sp.window
		s := seed*1_000_003 + uint64(c)*7919
		var x []complex128
		if ch.occupied {
			x, err = tiledcfd.NewBPSKBand(n, fc, symbolLen, sp.snrDB, s)
		} else {
			x, err = tiledcfd.NewNoiseBand(n, 1, s)
		}
		if err != nil {
			return nil, err
		}
		est := fam.FAM{Params: scf.Params{K: serveK, M: serveM, AlphaCandidates: ch.alphas}}
		for w := 0; w < distinct; w++ {
			win := x[w*sp.window : (w+1)*sp.window]
			for i, v := range win {
				win[i] = complex(float64(float32(real(v))), float64(float32(imag(v))))
			}
			surf, _, err := est.Estimate(win)
			if err != nil {
				return nil, err
			}
			d, err := dec.Decide(surf, nil)
			if err != nil {
				return nil, err
			}
			ch.windows = append(ch.windows, win)
			ch.want = append(ch.want, d)
		}
	}
	return chans, nil
}

// candidateBins is the alpha-candidate set a channel's open frame
// carries: the cycle-frequency bins of its licensed BPSK transmitter at
// carrier fc (the symbol rate and the doubled carrier), plus reference
// strips where that transmitter has no feature, which hold the CFAR
// noise floor at noise level when the features are present.
func candidateBins(cfg tiledcfd.Config, fc float64, symBin int) ([]int, error) {
	carBin, err := cfg.AlphaBinForHz(2*fc, 1)
	if err != nil {
		return nil, err
	}
	near := func(b int) bool {
		for _, f := range []int{0, symBin, 2 * symBin, 3 * symBin, carBin, carBin - symBin, carBin + symBin,
			carBin - 2*symBin, carBin + 2*symBin} {
			if b >= f-2 && b <= f+2 {
				return true
			}
		}
		return false
	}
	var free []int
	for b := 2; b < serveM; b++ {
		if !near(b) {
			free = append(free, b)
		}
	}
	bins := []int{symBin, carBin}
	for k := 0; k < referenceStrips; k++ {
		bins = append(bins, free[(2*k+1)*len(free)/(2*referenceStrips)])
	}
	sort.Ints(bins)
	return bins, nil
}

// carrierBins draws n distinct carrier bins (carrier = bin/K) from a
// seeded shuffle of the grid, keeping clear of the symbol-rate feature.
func carrierBins(seed uint64, n, symBin int) []int {
	var grid []int
	for b := 3; b < serveM-3; b++ {
		if b < symBin-1 || b > symBin+1 {
			grid = append(grid, b)
		}
	}
	x := seed | 1
	for i := len(grid) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		grid[i], grid[j] = grid[j], grid[i]
	}
	return grid[:n]
}

// verdict is one decision as the consumer received it.
type verdict struct {
	seq      int64
	stat     float64
	detected bool
	at       time.Time
}

// collector drains a stack's decision stream on one goroutine.
type collector struct {
	index map[string]int // channel id → index; read-only while running
	recv  [][]verdict    // per channel; owned by the consumer until done
	got   []atomic.Int64 // decisions received per channel
	count atomic.Int64
	done  chan struct{}
}

func newCollector(chans []serveChannel) *collector {
	c := &collector{
		index: map[string]int{}, recv: make([][]verdict, len(chans)),
		got: make([]atomic.Int64, len(chans)), done: make(chan struct{}),
	}
	for i, ch := range chans {
		c.index[ch.id] = i
	}
	return c
}

// consume records every decision of ch until it closes.
func consume[T any](c *collector, ch <-chan T, get func(T) (string, verdict)) {
	defer close(c.done)
	for d := range ch {
		id, v := get(d)
		v.at = time.Now()
		if i, ok := c.index[id]; ok {
			c.recv[i] = append(c.recv[i], v)
			c.got[i].Add(1)
		}
		c.count.Add(1)
	}
}

// stackCounters is what a run checks and samples from a stack.
type stackCounters struct {
	dropped, shed, decisionsDropped, queued int64
}

// stack is one assembled serving stack listening on loopback.
type stack struct {
	srv      *wire.Server
	addr     string
	counters func() stackCounters
	flush    func(time.Duration) error
	close    func() error
}

func (s *stack) shutdown() error {
	s.srv.Close()
	return s.close()
}

// monitorSink adapts the public sharded monitor to the wire server the
// way the serving daemon does.
type monitorSink struct{ mon *tiledcfd.ShardedMonitor }

func (s monitorSink) OpenChannel(meta wire.Meta) error {
	return s.mon.AddChannelCandidates(meta.ID, meta.AlphaCandidates)
}

func (s monitorSink) Push(id string, samples []complex128) (int, error) {
	return s.mon.Push(id, samples)
}

// newMonitor builds the daemon's sharded monitor through the public
// facade.
func newMonitor(sp serveSpec) (*tiledcfd.ShardedMonitor, error) {
	return tiledcfd.NewShardedMonitor(
		tiledcfd.Config{K: serveK, M: serveM, Estimator: "fam", Detector: "cfar"},
		tiledcfd.ShardedMonitorOptions{
			MonitorOptions: tiledcfd.MonitorOptions{
				SnapshotSamples: sp.window, Backpressure: true, CFARScale: cfarScale,
			},
			Shards: sp.shards,
		})
}

// newPublicStack builds the daemon's stack through the public facade.
func newPublicStack(sp serveSpec, c *collector) (*stack, error) {
	mon, err := newMonitor(sp)
	if err != nil {
		return nil, err
	}
	go consume(c, mon.Decisions(), func(d tiledcfd.ShardDecision) (string, verdict) {
		return d.Channel, verdict{seq: d.Seq, stat: d.Statistic, detected: d.Detected}
	})
	st := &stack{
		counters: func() stackCounters {
			s := mon.Stats()
			return stackCounters{s.SamplesDropped, s.ShedSamples, s.DecisionsDropped, s.QueuedSamples}
		},
		flush: mon.Flush,
		close: mon.Close,
	}
	return st, st.listen(monitorSink{mon})
}

// newTracedStack assembles the same stack from its layers, with the
// timing wrappers at each layer boundary.
func newTracedStack(sp serveSpec, c *collector, l *layers) (*stack, error) {
	p := scf.Params{K: serveK, M: serveM}
	dec, err := detect.NewDecider("cfar", detect.DeciderParams{
		Scf: p.WithDefaults(), MinAbsA: 2, CFARScale: cfarScale,
	})
	if err != nil {
		return nil, err
	}
	r, err := shard.New(shard.Config{
		Shards: sp.shards,
		Engine: stream.Config{
			Estimator:       timedEstimator{fam.FAM{Params: p}, l},
			SnapshotSamples: sp.window,
			Block:           true,
			CFARScale:       cfarScale,
			Decider:         timedDecider{dec, l},
		},
	})
	if err != nil {
		return nil, err
	}
	go consume(c, r.Decisions(), func(d shard.Decision) (string, verdict) {
		return d.Channel, verdict{seq: d.Seq, stat: d.Statistic, detected: d.Detected}
	})
	st := &stack{
		counters: func() stackCounters {
			s := r.Stats()
			return stackCounters{s.SamplesDropped, s.ShedSamples, s.DecisionsDropped, s.QueuedSamples}
		},
		flush: r.Flush,
		close: r.Close,
	}
	return st, st.listen(timedSink{r, l})
}

// listen puts a wire server in front of sink on a loopback port; on
// failure it closes the stack's monitor.
func (s *stack) listen(sink wire.Sink) error {
	srv, err := wire.NewServer(wire.ServerConfig{Sink: sink})
	if err != nil {
		s.close()
		return err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		s.close()
		return err
	}
	s.srv, s.addr = srv, addr.String()
	return nil
}

// clients are the load generator's connections and opened channels.
type clients struct {
	conns   []*wire.Client
	streams [][]*wire.ChannelStream // per connection
	chans   [][]int                 // channel indices per connection
}

func dialClients(sp serveSpec, addr string, chans []serveChannel) (*clients, error) {
	cl := &clients{}
	for k := 0; k < conns; k++ {
		c, err := wire.Dial(addr)
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.conns = append(cl.conns, c)
		var streams []*wire.ChannelStream
		var idx []int
		for i := k; i < len(chans); i += conns {
			cs, err := c.Open(wire.Meta{
				ID: chans[i].id, Format: wire.FormatCF32, SampleRateHz: 1,
				AlphaCandidates: chans[i].alphas,
			})
			if err != nil {
				cl.close()
				return nil, err
			}
			streams = append(streams, cs)
			idx = append(idx, i)
		}
		cl.streams = append(cl.streams, streams)
		cl.chans = append(cl.chans, idx)
	}
	return cl, nil
}

func (cl *clients) close() {
	for _, c := range cl.conns {
		c.Close()
	}
}

// phaseResult is one measured serving phase.
type phaseResult struct {
	start, end  time.Time // send schedule span
	sent        []int     // windows sent per channel
	due         [][]time.Time
	lagMs       []float64
	sendErrs    int
	recv        [][]verdict
	counters    stackCounters
	queued      []float64
	bytesPerSmp float64
	heapMB      []float64 // GC heap goal sampled every 10 ms
	lastRecv    time.Time
	gate        *gate   // pauses the load for calibrations; nil = never
	slices      []slice // the gated phase's measured slices
}

// gate pauses the load between slices while the host's speed is
// measured. A closed loop stops starting windows; an open loop holds
// every frame due from the pause on and, once the gate reopens, shifts
// its whole schedule by the pause, so no frame is late for it.
type gate struct {
	paused atomic.Bool
	since  atomic.Int64 // UnixNano the current pause began
	shift  atomic.Int64 // ns the open-loop schedule has moved so far
	// owed counts the windows that will be decided without the gate
	// opening: a closed loop counts a window when it begins (it finishes
	// the windows it began), an open loop when its last frame is sent.
	owed   atomic.Int64
	pauses [][2]time.Time // the controller's until the phase ends
}

func (g *gate) held() bool { return g != nil && g.paused.Load() }

// holds reports whether a frame due at due must wait for the gate.
func (g *gate) holds(due time.Time) bool { return g.held() && due.UnixNano() >= g.since.Load() }

func (g *gate) offset() time.Duration {
	if g == nil {
		return 0
	}
	return time.Duration(g.shift.Load())
}

// run alternates slices of the load with calibrations until the phase
// ends; before is the calibration made just before the phase. The first
// slice is the warm-up and is not kept. At each slice's end the gate
// closes and every window owed is decided, so the slice's CPU time
// covers its windows and the calibration has the host to itself.
func (g *gate) run(res *phaseResult, c *collector, cal *calibrator, before hostSpeed) {
	from, cpu0, owed0 := res.start, processCPU(), int64(0)
	for first := true; from.Before(res.end); first = false {
		to := from.Add(sliceLen)
		if first {
			to = from.Add(warmup)
		}
		if to.After(res.end) {
			to = res.end
		}
		time.Sleep(time.Until(to))
		pause := time.Now()
		g.since.Store(pause.UnixNano())
		g.paused.Store(true)
		deadline := time.Now().Add(30 * time.Second)
		for {
			// A sender that saw the gate open just before it closed
			// counts its window within microseconds.
			time.Sleep(time.Millisecond)
			if c.count.Load() >= g.owed.Load() || time.Now().After(deadline) {
				break
			}
		}
		cpu := processCPU() - cpu0
		windows := g.owed.Load() - owed0
		after := cal.measure()
		if !first && windows > 0 {
			res.slices = append(res.slices, slice{
				from: from, to: to, cpuMs: cpu.Seconds() * 1e3 / float64(windows),
				before: before, after: after,
			})
		}
		before = after
		from, cpu0, owed0 = time.Now(), processCPU(), g.owed.Load()
		g.pauses = append(g.pauses, [2]time.Time{pause, from})
		g.shift.Add(int64(from.Sub(pause)))
		g.paused.Store(false)
	}
}

// runPhase streams the inputs through st for the given duration and
// waits for every decision of every complete window sent. A gated phase
// alternates measured slices with calibrations.
func runPhase(sp serveSpec, chans []serveChannel, st *stack, cl *clients, c *collector,
	seconds float64, l *layers, gated bool) (*phaseResult, error) {
	dur := time.Duration(seconds * float64(time.Second))
	maxWin := int(math.Ceil(seconds*50e6/float64(sp.channels*sp.window))) + 8
	if sp.offered > 0 {
		maxWin = int(math.Ceil(seconds*sp.offered/float64(sp.channels*sp.window))) + 2
	}
	res := &phaseResult{sent: make([]int, len(chans)), due: make([][]time.Time, len(chans))}
	for i := range res.due {
		res.due[i] = make([]time.Time, maxWin)
	}
	stopSample := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSample:
				return
			case <-tick.C:
				res.queued = append(res.queued, float64(st.counters().queued))
				res.heapMB = append(res.heapMB, heapGoal()/(1<<20))
			}
		}
	}()
	lags := make([][]float64, len(cl.conns))
	errs := make([]error, len(cl.conns))
	var cal *calibrator
	var before hostSpeed
	if gated {
		res.gate = &gate{}
		cal = newCalibrator()
		before = cal.measure()
	}
	res.start = time.Now()
	res.end = res.start.Add(dur)
	var wg sync.WaitGroup
	for k := range cl.conns {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			lags[k], errs[k] = sendConn(sp, chans, k, cl.streams[k], cl.chans[k], c, res, l)
		}(k)
	}
	if gated {
		res.gate.run(res, c, cal, before)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			res.sendErrs++
			fmt.Fprintf(os.Stderr, "perfbench: connection %d: send: %v\n", k, err)
		}
		res.lagMs = append(res.lagMs, lags[k]...)
	}
	var want int64
	for _, n := range res.sent {
		want += int64(n)
	}
	deadline := time.Now().Add(60 * time.Second)
	for c.count.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stopSample)
	samplerWG.Wait()
	m := &st.srv.Metrics
	if n := m.SamplesIn.Load(); n > 0 {
		res.bytesPerSmp = float64(m.BytesIn.Load()) / float64(n)
	}
	if err := st.flush(30 * time.Second); err != nil {
		return nil, err
	}
	res.counters = st.counters()
	cl.close()
	if err := st.shutdown(); err != nil {
		return nil, err
	}
	select {
	case <-c.done:
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("decision stream did not close")
	}
	res.recv = c.recv
	for _, r := range res.recv {
		for _, v := range r {
			if v.at.After(res.lastRecv) {
				res.lastRecv = v.at
			}
		}
	}
	return res, nil
}

// sendConn drives one connection's channels frame by frame in
// round-robin order until the phase ends, each channel finishing its
// current window. Channel j starts j/len(idx) of a window late, so window
// boundaries, and with them decisions, spread evenly over time instead
// of arriving all at once. In the open loop every frame has a due time
// at a fixed interval; in the closed loop a channel starts a window only
// while fewer than inFlight of its windows await decisions and the gate
// is open.
func sendConn(sp serveSpec, chans []serveChannel, k int, streams []*wire.ChannelStream, idx []int,
	c *collector, res *phaseResult, l *layers) (lags []float64, err error) {
	frames := sp.window / sp.frame
	var interval time.Duration
	if sp.offered > 0 {
		perConn := sp.offered * float64(len(idx)) / float64(sp.channels)
		interval = time.Duration(float64(sp.frame) / perConn * float64(time.Second))
	}
	next := make([]int, len(idx)) // next frame of each channel's stream
	done := make([]bool, len(idx))
	// schedule is the open loop's due time for the connection's slot-th
	// frame; connections interleave their slots evenly.
	schedule := func(slot int) time.Time {
		return res.start.Add(res.gate.offset() +
			time.Duration((float64(slot)+float64(k)/float64(conns))*float64(interval)))
	}
	slot := 0
	deadline := res.end.Add(time.Minute)
	for round := 0; ; round++ {
		active, sent := false, false
		for j, i := range idx {
			if done[j] {
				continue
			}
			active = true
			if round < j*frames/len(idx) {
				continue
			}
			w, f := next[j]/frames, next[j]%frames
			var due time.Time
			if sp.offered > 0 {
				due = schedule(slot)
			}
			if f == 0 {
				over := time.Now().After(res.end)
				if sp.offered > 0 {
					over = due.After(res.end)
				}
				if over || w >= len(res.due[i]) {
					done[j] = true
					continue
				}
				if sp.offered == 0 && (c.got[i].Load() < int64(w-sp.inFlight+1) || res.gate.held()) {
					continue
				}
				if sp.offered == 0 && res.gate != nil {
					res.gate.owed.Add(1)
				}
			}
			if sp.offered > 0 {
				for {
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
					if !res.gate.holds(due) {
						break
					}
					for res.gate.held() {
						time.Sleep(100 * time.Microsecond)
					}
					due = schedule(slot)
				}
				lags = append(lags, float64(time.Since(due).Nanoseconds())/1e6)
				slot++
			}
			t := time.Now()
			if sp.offered == 0 {
				due = t
			}
			err := streams[j].Send(chans[i].windows[w%distinct][f*sp.frame : (f+1)*sp.frame])
			if l != nil {
				l.send.record(time.Since(t), sp.frame)
			}
			if err != nil {
				return lags, err
			}
			sent = true
			next[j]++
			if f == frames-1 {
				res.due[i][w] = due
				res.sent[i] = w + 1
				if sp.offered > 0 && res.gate != nil {
					res.gate.owed.Add(1)
				}
			}
		}
		if !active {
			return lags, nil
		}
		if !sent {
			if time.Now().After(deadline) {
				return lags, fmt.Errorf("decisions for earlier windows never arrived")
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// check verifies one phase's decisions against the batch reference and
// tallies operations (expected decision windows) and failures.
func (res *phaseResult) check(sp serveSpec, chans []serveChannel, out *outcome, phase string) {
	for i, ch := range chans {
		seen := make([]int, res.sent[i])
		for _, v := range res.recv[i] {
			if v.seq < 0 || v.seq >= int64(len(seen)) {
				out.failed++
				out.problem("%s %s: decision seq %d outside the %d windows sent", phase, ch.id, v.seq, len(seen))
				continue
			}
			seen[v.seq]++
			want := ch.want[v.seq%int64(distinct)]
			if math.Float64bits(v.stat) != math.Float64bits(want.Statistic) || v.detected != want.Detected {
				out.problem("%s %s window %d: served statistic %v (detected %v), batch %v (detected %v)",
					phase, ch.id, v.seq, v.stat, v.detected, want.Statistic, want.Detected)
			}
		}
		out.attempted += len(seen)
		for w, n := range seen {
			if n != 1 {
				out.failed++
				out.problem("%s %s window %d: %d decisions, want 1", phase, ch.id, w, n)
			}
		}
	}
	if res.sendErrs > 0 {
		out.failed += res.sendErrs
		out.problem("%s: %d connections failed to send", phase, res.sendErrs)
	}
	k := res.counters
	if lost := k.dropped + k.shed; lost > 0 {
		out.failed += int((lost + int64(sp.window) - 1) / int64(sp.window))
		out.problem("%s: %d samples dropped or shed", phase, lost)
	}
	if k.decisionsDropped > 0 {
		out.failed += int(k.decisionsDropped)
		out.problem("%s: %d decisions dropped", phase, k.decisionsDropped)
	}
}

// checkSchedule invalidates an open-loop phase whose generator fell
// behind its schedule or whose server fell behind the offered rate.
func (res *phaseResult) checkSchedule(sp serveSpec, out *outcome, phase string) {
	if sp.offered == 0 {
		return
	}
	rate := res.rate(sp)
	lag := summary(res.lagMs)
	out.run[phase+"_achieved_over_offered"] = rate / sp.offered
	out.run[phase+"_generator_lag_ms"] = lag
	if rate/sp.offered < minAchieved {
		out.problem("%s: achieved %.0f samples/s of %.0f offered: backlog grew", phase, rate, sp.offered)
	}
	if lag["p50"] > float64(maxLagP50.Milliseconds()) {
		out.problem("%s: generator ran %.1f ms late at p50 (limit %v)", phase, lag["p50"], maxLagP50)
	}
}

// rate is the phase's decided rate in samples/s: the samples of every
// decision received after the warm-up, over the time from the end of
// the warm-up to the last decision less the gate's pauses.
func (res *phaseResult) rate(sp serveSpec) float64 {
	from := res.start.Add(warmup)
	n := 0
	for _, r := range res.recv {
		for _, v := range r {
			if v.at.After(from) {
				n++
			}
		}
	}
	span := res.lastRecv.Sub(from)
	if res.gate != nil {
		for _, p := range res.gate.pauses {
			a, b := p[0], p[1]
			if a.Before(from) {
				a = from
			}
			if b.After(res.lastRecv) {
				b = res.lastRecv
			}
			if b.After(a) {
				span -= b.Sub(a)
			}
		}
	}
	return float64(n) * float64(sp.window) / span.Seconds()
}

// sliceRates sets each gated slice's decided rate in samples/s, measured
// between the slice's first and last decision, so the rate is a measured
// time rather than a count of whole windows.
func (res *phaseResult) sliceRates(sp serveSpec) {
	for i := range res.slices {
		s := &res.slices[i]
		var first, last time.Time
		count := 0
		for _, r := range res.recv {
			for _, v := range r {
				if v.at.Before(s.from) || v.at.After(s.to) {
					continue
				}
				if count == 0 || v.at.Before(first) {
					first = v.at
				}
				if v.at.After(last) {
					last = v.at
				}
				count++
			}
		}
		if span := last.Sub(first).Seconds(); count >= 2 && span > 0 {
			s.rate = float64(count-1) * float64(sp.window) / span
		}
	}
}

// latencies are ingest→decision times in ms, stamped with the due time
// of the window's last frame, for windows due after the warm-up.
func (res *phaseResult) latencies() []stamped {
	var v []stamped
	for i, r := range res.recv {
		for _, d := range r {
			if d.seq >= int64(res.sent[i]) {
				continue
			}
			due := res.due[i][d.seq]
			if due.Before(res.start.Add(warmup)) {
				continue
			}
			v = append(v, stamped{due, float64(d.at.Sub(due).Nanoseconds()) / 1e6})
		}
	}
	return v
}

func (res *phaseResult) accuracy(chans []serveChannel) (float64, int) {
	right, n := 0, 0
	for i, r := range res.recv {
		for _, v := range r {
			n++
			if v.detected == chans[i].occupied {
				right++
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(right) / float64(n), n
}

func runServe(o options, out *outcome, sp serveSpec) error {
	p := scf.Params{K: serveK, M: serveM}
	dec, err := detect.NewDecider("cfar", detect.DeciderParams{Scf: p.WithDefaults(), MinAbsA: 2, CFARScale: cfarScale})
	if err != nil {
		return err
	}
	chans, err := serveInputs(sp, o.seed, dec)
	if err != nil {
		return err
	}
	out.run["shards"], out.run["channels"], out.run["connections"] = sp.shards, sp.channels, conns
	out.run["window_samples"], out.run["frame_samples"], out.run["snr_db"] = sp.window, sp.frame, sp.snrDB
	out.run["loop"] = "closed"
	if sp.offered > 0 {
		out.run["loop"], out.run["offered_samples_per_s"] = "open", sp.offered
	}
	seconds := o.seconds
	if o.trace {
		seconds /= 2 // an untraced reference phase, then the traced phase
	}

	// Set-up is timed on fresh stacks, half before the measured phase and
	// half after, so the median spans the host's state over the run.
	setups, err := serveSetups(sp, chans, setupReps/2)
	if err != nil {
		return err
	}
	c := newCollector(chans)
	st, err := newPublicStack(sp, c)
	if err != nil {
		return err
	}
	cl, err := dialClients(sp, st.addr, chans)
	if err != nil {
		st.shutdown()
		return err
	}
	runtime.GC()
	// The end-to-end phase is gated for calibrations; the traced run's
	// reference phase is not, so its rate compares with the traced
	// phase's.
	untraced, err := runPhase(sp, chans, st, cl, c, seconds, nil, !o.trace)
	if err != nil {
		return err
	}
	more, err := serveSetups(sp, chans, setupReps-setupReps/2)
	if err != nil {
		return err
	}
	setups = append(setups, more...)
	untraced.check(sp, chans, out, "untraced")
	rate := untraced.rate(sp)
	untraced.checkSchedule(sp, out, "untraced")
	lat := untraced.latencies()
	out.run["latency_ms"] = tail(lat)
	reportLatency(out, lat, untraced.start.Add(warmup), o.trace)
	if !o.trace {
		acc, n := untraced.accuracy(chans)
		untraced.sliceRates(sp)
		if err := reportSlices(out, untraced.slices, sp.elastic); err != nil {
			return err
		}
		out.rep.value("verdict_accuracy", acc, "share of decisions matching ground truth", n)
		out.rep.percentile("peak_heap_mb", untraced.heapMB, peakHeapQuantile)
		out.rep.percentile("setup_s", scaleSetups(out, setups, untraced.slices), 0.5)
		return nil
	}

	// Traced phase: the same stack assembled from its layers.
	l := &layers{}
	c = newCollector(chans)
	if st, err = newTracedStack(sp, c, l); err != nil {
		return err
	}
	if cl, err = dialClients(sp, st.addr, chans); err != nil {
		return err
	}
	stopProfile, err := startProfile(o.cpuprofile)
	if err != nil {
		return err
	}
	before := readCPUClasses()
	traced, err := runPhase(sp, chans, st, cl, c, seconds, l, false)
	if err != nil {
		return err
	}
	after := readCPUClasses()
	if err := stopProfile(); err != nil {
		return err
	}
	traced.check(sp, chans, out, "traced")
	traced.checkSchedule(sp, out, "traced")
	for i := range chans {
		a, b := untraced.recv[i], traced.recv[i]
		for j := 0; j < len(a) && j < len(b); j++ {
			if a[j].seq == b[j].seq && a[j].detected != b[j].detected {
				out.problem("%s window %d: traced verdict %v, untraced %v", chans[i].id, a[j].seq, b[j].detected, a[j].detected)
			}
		}
	}
	sh, err := attribute(before, after,
		busySeconds(&l.accPush, &l.snapshot, &l.reset), busySeconds(&l.decide))
	if err != nil {
		out.problem("reconciliation: %v", err)
	}
	reportShares(out, sh, traced.decisions())
	out.rep.value("trace.overhead_pct", (rate-traced.rate(sp))/rate*100,
		"samples_per_s, untraced vs traced phase", traced.decisions())
	_, _, send := l.send.totals()
	out.rep.percentile("wire.send_us_per_frame", send, 0.5)
	out.rep.value("wire.bytes_per_sample", traced.bytesPerSmp, "server BytesIn / SamplesIn", 1)
	_, _, push := l.push.totals()
	out.rep.percentile("shard.push_us_per_frame", push, 0.5)
	out.rep.percentile("stream.queued_samples_p50", traced.queued, 0.5)
	out.rep.percentile("stream.queued_samples_max", traced.queued, 1)
	out.rep.value("stream.decisions_dropped", float64(traced.counters.decisionsDropped), "count", 1)
	busy, samples, _ := l.accPush.totals()
	if samples > 0 {
		out.rep.value("accumulator.push_ns_per_sample", float64(busy.Nanoseconds())/float64(samples),
			"total Push time / samples pushed", int(samples))
	}
	_, _, snaps := l.snapshot.totals()
	out.rep.percentile("accumulator.snapshot_us", snaps, 0.5)
	_, _, resets := l.reset.totals()
	out.rep.percentile("accumulator.reset_us", resets, 0.5)
	_, _, decides := l.decide.totals()
	out.rep.percentile("detect.decide_us", decides, 0.5)
	if sp.offered > 0 {
		out.rep.percentile("generator.lag_p99_ms", traced.lagMs, 0.99)
	}
	return nil
}

// serveSetups times n set-ups of the serving stack as the daemon builds
// it: the sharded monitor with every channel registered (what each open
// frame triggers), and the wire server listening. Dialing and the open
// handshakes are left out: they are loopback round trips whose time
// follows the host's scheduling noise rather than the work set-up does.
// Each set-up is timed in process CPU time, which the host's CPU steal
// does not move: in wall time the median of paced set-ups moved by 0.39
// between two sets of ten runs of the same code.
func serveSetups(sp serveSpec, chans []serveChannel, n int) ([]float64, error) {
	var v []float64
	for r := 0; r < n; r++ {
		runtime.GC()
		t := processCPU()
		mon, err := newMonitor(sp)
		if err != nil {
			return nil, err
		}
		for _, ch := range chans {
			if err := mon.AddChannelCandidates(ch.id, ch.alphas); err != nil {
				mon.Close()
				return nil, err
			}
		}
		srv, err := wire.NewServer(wire.ServerConfig{Sink: monitorSink{mon}})
		if err != nil {
			mon.Close()
			return nil, err
		}
		_, err = srv.Listen("127.0.0.1:0")
		d := processCPU() - t
		srv.Close()
		if cerr := mon.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		v = append(v, d.Seconds())
	}
	return v, nil
}

// reportShares records the traced phase's CPU attribution.
func reportShares(out *outcome, sh cpuShares, windows int) {
	out.rep.value("accumulator.cpu_share", sh.accumulator, "Push+Snapshot+Reset / (wall × GOMAXPROCS)", 1)
	out.rep.value("residual_cpu_share", sh.residual, "user CPU outside timed layers / (wall × GOMAXPROCS)", 1)
	out.rep.value("runtime.gc_cpu_share", sh.gc, "GC+scavenge CPU / (wall × GOMAXPROCS)", 1)
	if windows > 0 {
		out.rep.value("runtime.alloc_bytes_per_window", sh.allocBytes/float64(windows), "heap bytes allocated / windows", windows)
	}
	out.run["cpu_shares"] = map[string]float64{
		"accumulator": sh.accumulator, "other_timed_layers": sh.otherTimed, "residual": sh.residual,
		"gc": sh.gc, "idle": sh.idle, "runtime_total": sh.runtot, "tolerance": reconcileTolerance,
	}
}

func (res *phaseResult) decisions() int {
	n := 0
	for _, r := range res.recv {
		n += len(r)
	}
	return n
}

// latencyInterval is the span over which latency percentiles are taken
// before their median across the run is reported.
const latencyInterval = 2 * time.Second

// reportLatency reports the decision latency with the traced run's layer
// times, not as an end-to-end metric: on a shared 2-vCPU host whose
// hypervisor steals CPU in phases of seconds to minutes it was not
// steady enough to carry a regression bound. Over ten 30-s runs of the
// same code on serve-pruned-paced the spread (interquartile range over
// median) of the p50 was 0.18 to 0.39, of the p90 0.37 and of the p99
// 2.5. The p50 and p90 are medians over 2-s intervals, the p99 is the
// whole untraced phase's.
func reportLatency(out *outcome, lat []stamped, from time.Time, trace bool) {
	p50 := intervalQuantiles(lat, from, latencyInterval, 0.5)
	out.run["latency_p50_by_interval_ms"] = p50
	if !trace {
		return
	}
	v := make([]float64, len(lat))
	for i, o := range lat {
		v[i] = o.v
	}
	out.rep.median("decision_latency_p50_ms", p50, "median over 2-s intervals of the interval p50")
	out.rep.median("decision_latency_p90_ms", intervalQuantiles(lat, from, latencyInterval, 0.9),
		"median over 2-s intervals of the interval p90")
	out.rep.percentile("decision_latency_p99_ms", v, 0.99)
}

// tail summarises a whole run's latency distribution for the provenance.
func tail(obs []stamped) map[string]float64 {
	v := make([]float64, len(obs))
	for i, o := range obs {
		v[i] = o.v
	}
	return summary(v)
}

// summary gives a distribution's median and upper tail.
func summary(v []float64) map[string]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return map[string]float64{"p50": quantile(s, 0.5), "p90": quantile(s, 0.9), "p99": quantile(s, 0.99), "p99.9": quantile(s, 0.999)}
}

// peakHeapQuantile is the quantile of the sampled heap goal reported as
// the peak. The maximum depends on whether a collection happens to mark
// while a transient buffer is live: on watch-batch it read 26.8 MB in 2
// of 10 runs against 19 to 22 MB in the rest, while the p99 stayed within
// 0.03 over six runs.
const peakHeapQuantile = 0.99

// heapGoal is the heap size at which the runtime next collects: the
// heap's peak in steady state, and unlike a sampled heap size it does not
// depend on where in the GC cycle the sample falls.
func heapGoal() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}
