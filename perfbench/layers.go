package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"tiledcfd/internal/detect"
	"tiledcfd/internal/scf"
	"tiledcfd/internal/shard"
	"tiledcfd/internal/wire"
)

// layers holds the clocks the traced run's wrappers feed. Each wrapper
// times the call into one layer from outside, so a clock's busy time is
// that boundary's self time: the wrapped calls do not nest.
type layers struct {
	send     clock // wire.ChannelStream.Send, per frame (client side)
	push     clock // wire.Sink.Push into the shard router, per frame
	accPush  clock // scf.Accumulator.Push, units = samples
	snapshot clock // scf.Accumulator.Snapshot
	reset    clock // scf.Accumulator.Reset
	decide   clock // detect.Decider.Decide
}

// timedSink is the wire.Sink the traced run puts around the shard router,
// adapting it the way the serving daemon's monitor sink does.
type timedSink struct {
	r *shard.Router
	l *layers
}

func (s timedSink) OpenChannel(meta wire.Meta) error {
	return s.r.AddChannelCandidates(meta.ID, meta.AlphaCandidates)
}

func (s timedSink) Push(id string, samples []complex128) (int, error) {
	t := time.Now()
	n, err := s.r.Push(id, samples)
	s.l.push.record(time.Since(t), len(samples))
	return n, err
}

// timedEstimator hands out accumulators that time Push, Snapshot and
// Reset. It forwards WithAlphaCandidates so per-channel pruning still
// reaches the wrapped estimator.
type timedEstimator struct {
	scf.StreamingEstimator
	l *layers
}

func (e timedEstimator) NewAccumulator() (scf.Accumulator, error) {
	a, err := e.StreamingEstimator.NewAccumulator()
	if err != nil {
		return nil, err
	}
	return timedAccumulator{a, e.l}, nil
}

func (e timedEstimator) WithAlphaCandidates(alphas []int) (scf.StreamingEstimator, error) {
	ce, ok := e.StreamingEstimator.(scf.CandidateEstimator)
	if !ok {
		return nil, fmt.Errorf("estimator %q does not support alpha candidates", e.Name())
	}
	pruned, err := ce.WithAlphaCandidates(alphas)
	if err != nil {
		return nil, err
	}
	return timedEstimator{pruned, e.l}, nil
}

type timedAccumulator struct {
	scf.Accumulator
	l *layers
}

func (a timedAccumulator) Push(samples []complex128) error {
	t := time.Now()
	err := a.Accumulator.Push(samples)
	a.l.accPush.record(time.Since(t), len(samples))
	return err
}

func (a timedAccumulator) Snapshot() (*scf.Surface, *scf.Stats, error) {
	t := time.Now()
	s, st, err := a.Accumulator.Snapshot()
	a.l.snapshot.record(time.Since(t), 1)
	return s, st, err
}

func (a timedAccumulator) Reset() {
	t := time.Now()
	a.Accumulator.Reset()
	a.l.reset.record(time.Since(t), 1)
}

// timedDecider times Decide on the engine's worker goroutines.
type timedDecider struct {
	detect.Decider
	l *layers
}

func (d timedDecider) Decide(s *scf.Surface, samples []complex128) (detect.Decision, error) {
	t := time.Now()
	res, err := d.Decider.Decide(s, samples)
	d.l.decide.record(time.Since(t), 1)
	return res, err
}

// cpuClasses is the Go runtime's own CPU accounting (in CPU-seconds over
// all GOMAXPROCS), plus heap allocation, read at one instant.
type cpuClasses struct {
	total, user, gc, scavenge, idle float64
	allocBytes                      float64
	at                              time.Time
}

var cpuClassNames = []string{
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/scavenge/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

// readCPUClasses forces a collection first: the runtime folds its CPU
// class counters only at GC boundaries, so without one the deltas would
// cover an unknown span.
func readCPUClasses() cpuClasses {
	runtime.GC()
	s := make([]metrics.Sample, len(cpuClassNames))
	for i, n := range cpuClassNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return float64(s[i].Value.Uint64())
		}
		return s[i].Value.Float64()
	}
	return cpuClasses{
		total: f(0), user: f(1), gc: f(2), scavenge: f(3), idle: f(4),
		allocBytes: f(5), at: time.Now(),
	}
}

// reconcileTolerance is how far the traced run's accounting may stray,
// as a share of wall × GOMAXPROCS, before the run fails. The shares of
// the timed layers, the residual, GC and idle time add up to the
// runtime's CPU total, which must match wall × GOMAXPROCS; and the timed
// layers may not exceed the CPU the runtime saw running Go code (a
// negative residual).
const reconcileTolerance = 0.10

// cpuShares attributes the traced window's CPU capacity (wall ×
// GOMAXPROCS) to the timed layers, the Go runtime's GC and scavenger,
// idle time and the residual: user-code CPU outside every timed call. On
// the serving path the timed layers are the accumulator and the decider,
// so the residual covers wire decode, shard routing, engine scheduling,
// the load generator and the runtime scheduler.
type cpuShares struct {
	capacity                   float64 // wall × GOMAXPROCS, CPU-seconds
	accumulator, otherTimed    float64
	residual, gc, idle, runtot float64
	allocBytes                 float64
}

// attribute splits the span between two readings; acc and other are the
// busy seconds of the accumulator and of every other timed layer.
func attribute(a, b cpuClasses, acc, other float64) (cpuShares, error) {
	capacity := b.at.Sub(a.at).Seconds() * float64(runtime.GOMAXPROCS(0))
	user := b.user - a.user
	sh := cpuShares{
		capacity:    capacity,
		accumulator: acc / capacity,
		otherTimed:  other / capacity,
		residual:    (user - acc - other) / capacity,
		gc:          (b.gc - a.gc + b.scavenge - a.scavenge) / capacity,
		idle:        (b.idle - a.idle) / capacity,
		runtot:      (b.total - a.total) / capacity,
		allocBytes:  b.allocBytes - a.allocBytes,
	}
	if d := sh.runtot - 1; d > reconcileTolerance || d < -reconcileTolerance {
		return sh, fmt.Errorf("runtime CPU total %.3f of wall × GOMAXPROCS, outside ±%.0f%%",
			sh.runtot, reconcileTolerance*100)
	}
	if sh.residual < -reconcileTolerance {
		return sh, fmt.Errorf("timed layers exceed the user CPU the runtime measured: residual share %.3f",
			sh.residual)
	}
	return sh, nil
}

// busySeconds sums the busy time of the given clocks.
func busySeconds(cs ...*clock) float64 {
	var s float64
	for _, c := range cs {
		busy, _, _ := c.totals()
		s += busy.Seconds()
	}
	return s
}
