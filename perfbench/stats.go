package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quartiles returns the first quartile, median and third quartile of v,
// interpolated at positions p·(n+1) like Python's
// statistics.quantiles(v, n=4) (which extrapolates where this clamps, for
// fewer than four values). v is sorted in place.
func quartiles(v []float64) (q1, med, q3 float64) {
	sort.Float64s(v)
	switch len(v) {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	return quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75)
}

// quantile interpolates the p-quantile of sorted v at position p·(n+1),
// clamped to the ends.
func quantile(v []float64, p float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return v[0]
	}
	if pos >= float64(n-1) {
		return v[n-1]
	}
	i := int(pos)
	f := pos - float64(i)
	return v[i] + f*(v[i+1]-v[i])
}

// clock accumulates the busy time and call count of one layer boundary,
// plus the per-call durations in microseconds for medians.
type clock struct {
	mu    sync.Mutex
	busy  time.Duration
	units int64 // work units (samples) passed through the boundary
	calls []float64
}

func (c *clock) record(d time.Duration, units int) {
	c.mu.Lock()
	c.busy += d
	c.units += int64(units)
	c.calls = append(c.calls, float64(d.Nanoseconds())/1e3)
	c.mu.Unlock()
}

func (c *clock) totals() (busy time.Duration, units int64, calls []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.busy, c.units, append([]float64(nil), c.calls...)
}

// stamped is one observation with the time it belongs to.
type stamped struct {
	at time.Time
	v  float64
}

// intervalQuantiles splits the observations from `from` on into
// consecutive intervals of width w and returns, in time order, the
// p-quantile of each interval holding at least minPerInterval
// observations: a host stall moves the intervals it falls in, not the
// whole run's figure.
func intervalQuantiles(obs []stamped, from time.Time, w time.Duration, p float64) []float64 {
	groups := map[int][]float64{}
	for _, o := range obs {
		if o.at.Before(from) {
			continue
		}
		i := int(o.at.Sub(from) / w)
		groups[i] = append(groups[i], o.v)
	}
	keys := make([]int, 0, len(groups))
	for i := range groups {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	var out []float64
	for _, i := range keys {
		if g := groups[i]; len(g) >= minPerInterval {
			sort.Float64s(g)
			out = append(out, quantile(g, p))
		}
	}
	return out
}

// minPerInterval keeps a p90 within an interval backed by at least ten
// observations beyond it.
const minPerInterval = 100

// processCPU is the process's user plus system CPU time. The kernel
// accounts time the hypervisor steals from the VM apart from it, so for
// the same work it holds steady where wall time does not.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // fails only for a bad pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// finite reports whether x is a usable number.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// spec names one reported metric and its unit.
type spec struct{ name, unit string }

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDetail is one metric's provenance: the reported value, which
// statistic of which observations it is, and their spread.
type metricDetail struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Reports string  `json:"reports"`
	N       int     `json:"n"`
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
}

// report collects a run's metrics by name.
type report struct{ m map[string]metricDetail }

// percentile reports the p-quantile of the observations v.
func (r report) percentile(name string, v []float64, p float64) {
	v = append([]float64(nil), v...)
	q1, med, q3 := quartiles(v)
	r.m[name] = metricDetail{
		Value: quantile(v, p), Reports: fmt.Sprintf("p%g", p*100),
		N: len(v), Median: med, Q1: q1, Q3: q3,
	}
}

// median reports the median of per-interval figures v, described by
// reports.
func (r report) median(name string, v []float64, reports string) {
	v = append([]float64(nil), v...)
	q1, med, q3 := quartiles(v)
	r.m[name] = metricDetail{Value: med, Reports: reports, N: len(v), Median: med, Q1: q1, Q3: q3}
}

// value reports a single figure: a total, a ratio of totals or an exact
// count, derived from n observations.
func (r report) value(name string, x float64, reports string, n int) {
	r.m[name] = metricDetail{Value: x, Reports: reports, N: n, Median: x, Q1: x, Q3: x}
}
