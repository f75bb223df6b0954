package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// setupReps is how many times each workload builds its system; setup_s
// is the median, and the last build is the one measured.
const setupReps = 9

// sliceLen is the length of the slices a measured window is cut into.
// End-to-end rates, costs and latency percentiles are medians over the
// slices, so a burst of interference from outside the process (the
// benchmark shares its machine) moves one slice, not the result.
const sliceLen = time.Second

// outcome is what one workload run measured and checked.
type outcome struct {
	setups    []time.Duration // every set-up repetition
	attempted int64           // ops offered in the measured window
	failed    int64           // ops that failed or were refused
	win       window          // the whole measured window
	slices    []slice         // the window cut into sliceLen pieces
	lat       []sample        // latency samples
	breaches  []string        // failed output checks
	// lag holds net_open's generator lateness samples (ns): how long
	// after its due time each cycle's first request was written.
	lag []float64
}

// sample is one latency observation: when the op completed (ns since
// the meter started) and how long it took (ns).
type sample struct{ at, ns float64 }

// reservoirSize bounds the latency samples one worker keeps per slice.
const reservoirSize = 4096

// latencies is one worker's latency record: a uniform random sample of
// at most reservoirSize observations per slice (reservoir sampling), so
// the benchmark's own memory, and with it max_rss_mb, does not grow
// with the program's speed.
type latencies struct {
	slices [][]sample
	seen   []int
	rng    uint64
}

func (l *latencies) add(m *meter, end time.Time, ns float64) {
	s := sample{m.at(end), ns}
	k := max(int(s.at/float64(sliceLen)), 0)
	for len(l.slices) <= k {
		l.slices = append(l.slices, make([]sample, 0, reservoirSize))
		l.seen = append(l.seen, 0)
	}
	l.seen[k]++
	if len(l.slices[k]) < reservoirSize {
		l.slices[k] = append(l.slices[k], s)
		return
	}
	// splitmix64 step: the reservoir's own random stream.
	l.rng += 0x9e3779b97f4a7c15
	z := (l.rng ^ l.rng>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	if j := (z ^ z>>31) % uint64(l.seen[k]); j < reservoirSize {
		l.slices[k][j] = s
	}
}

func (l *latencies) all() []sample {
	var out []sample
	for _, s := range l.slices {
		out = append(out, s...)
	}
	return out
}

// slice is one sliceLen piece of the measured window.
type slice struct {
	w   window
	ops int64
	lat []float64 // sorted
}

func (o *outcome) breach(format string, args ...interface{}) {
	o.breaches = append(o.breaches, fmt.Sprintf(format, args...))
}

// ops is the number of operations that succeeded in the window.
func (o *outcome) ops() int64 { return o.attempted - o.failed }

// endToEnd derives the end-to-end metrics (README.md defines them).
func (o *outcome) endToEnd() map[string]metric {
	setup := make([]float64, len(o.setups))
	for i, d := range o.setups {
		setup[i] = d.Seconds()
	}
	sort.Float64s(setup)
	per := func(f func(s slice) float64) float64 {
		var xs []float64
		for _, s := range o.slices {
			if s.ops > 0 {
				xs = append(xs, f(s))
			}
		}
		sort.Float64s(xs)
		return quantile(xs, 0.5)
	}
	return map[string]metric{
		"setup_s":        {quantile(setup, 0.5), "s"},
		"ops_per_s":      {per(func(s slice) float64 { return float64(s.ops) / s.w.wall.Seconds() }), "1/s"},
		"latency_p50_us": {o.latency(0.50) / 1e3, "us"},
		"latency_p99_us": {o.latency(0.99) / 1e3, "us"},
		"ok_ratio":       {1 - float64(o.failed)/float64(max(o.attempted, 1)), "ratio"},
		"cpu_us_per_op":  {per(func(s slice) float64 { return s.w.cpu().Seconds() * 1e6 / float64(s.ops) }), "us"},
		"allocs_per_op":  {per(func(s slice) float64 { return float64(s.w.allocs) / float64(s.ops) }), "count"},
		"max_rss_mb":     {maxRSSMB(), "MB"},
	}
}

// meter watches a measured window: a mark (snapshot plus completed-op
// count) at the start, every sliceLen, and at the end. Workers report
// completed ops through add, each into its own cache line.
type meter struct {
	t0     time.Time
	counts []paddedCount
	marks  []mark
	stopc  chan struct{}
	done   chan struct{}
}

type mark struct {
	s   snapshot
	ops int64
}

type paddedCount struct {
	n atomic.Int64
	_ [56]byte
}

func startMeter(workers int) *meter {
	m := &meter{counts: make([]paddedCount, workers), stopc: make(chan struct{}), done: make(chan struct{})}
	m.marks = append(m.marks, m.mark())
	m.t0 = m.marks[0].s.at
	go func() {
		defer close(m.done)
		t := time.NewTicker(sliceLen)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				m.marks = append(m.marks, m.mark())
			case <-m.stopc:
				return
			}
		}
	}()
	return m
}

func (m *meter) mark() mark {
	var n int64
	for i := range m.counts {
		n += m.counts[i].n.Load()
	}
	return mark{snap(), n}
}

// add reports n more completed ops by worker w.
func (m *meter) add(w int, n int64) { m.counts[w].n.Add(n) }

// at is a latency sample's completion time on the meter's clock.
func (m *meter) at(t time.Time) float64 { return float64(t.Sub(m.t0)) }

// finish closes the window and cuts it and o.lat into slices. A slice
// shorter than half sliceLen (the tail after the last tick) is dropped
// unless it is the only one.
func (o *outcome) finish(m *meter) {
	close(m.stopc)
	<-m.done
	m.marks = append(m.marks, m.mark())
	first, last := m.marks[0], m.marks[len(m.marks)-1]
	o.win = first.s.to(last.s)
	sort.Slice(o.lat, func(i, j int) bool { return o.lat[i].at < o.lat[j].at })
	var all []slice
	k := 0
	for i := 1; i < len(m.marks); i++ {
		a, b := m.marks[i-1], m.marks[i]
		s := slice{w: a.s.to(b.s), ops: b.ops - a.ops}
		end := m.at(b.s.at)
		for ; k < len(o.lat) && (o.lat[k].at < end || i == len(m.marks)-1); k++ {
			s.lat = append(s.lat, o.lat[k].ns)
		}
		sort.Float64s(s.lat)
		all = append(all, s)
	}
	for _, s := range all {
		if s.w.wall >= sliceLen/2 {
			o.slices = append(o.slices, s)
		}
	}
	if len(o.slices) == 0 {
		o.slices = all
	}
}

// latency is the q-quantile of the latency samples, taken as a median
// over windows so that a burst of outside interference moves one window
// and not the result. A window is a run of consecutive slices holding
// enough samples for ten to lie beyond the quantile (one slice, unless
// samples are sparse); a short remainder joins the last window.
func (o *outcome) latency(q float64) float64 {
	need := int(math.Ceil(10 / (1 - q)))
	var windows [][]float64
	var cur []float64
	for _, s := range o.slices {
		cur = append(cur, s.lat...)
		if len(cur) >= need {
			windows = append(windows, cur)
			cur = nil
		}
	}
	switch {
	case len(windows) == 0:
		windows = [][]float64{cur}
	case len(cur) > 0:
		windows[len(windows)-1] = append(windows[len(windows)-1], cur...)
	}
	per := make([]float64, len(windows))
	for i, w := range windows {
		sort.Float64s(w)
		per[i] = quantile(w, q)
	}
	sort.Float64s(per)
	return quantile(per, 0.5)
}

// quantile interpolates linearly between the order statistics of the
// sorted sample xs; NaN-free: an empty sample reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// window is the process-wide cost of one measured interval: wall time,
// CPU from getrusage, heap allocations and runtime/metrics deltas.
type window struct {
	wall      time.Duration
	user, sys time.Duration
	allocs    uint64
	gcCPU     float64 // seconds of GC CPU (runtime estimate)
	busyCPU   float64 // seconds of non-idle CPU (runtime estimate)
	sched     *metrics.Float64Histogram
}

func (w window) cpu() time.Duration { return w.user + w.sys }

var sampleNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/sched/latencies:seconds",
}

type snapshot struct {
	at        time.Time
	user, sys time.Duration
	samples   []metrics.Sample
}

func snap() snapshot {
	s := snapshot{samples: make([]metrics.Sample, len(sampleNames))}
	for i, n := range sampleNames {
		s.samples[i].Name = n
	}
	metrics.Read(s.samples)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s.user = time.Duration(ru.Utime.Nano())
	s.sys = time.Duration(ru.Stime.Nano())
	s.at = time.Now()
	return s
}

// since closes a window opened by snapshot s.
func (s snapshot) since() window { return s.to(snap()) }

// to is the window between snapshots s and e.
func (s snapshot) to(e snapshot) window {
	w := window{
		wall:   e.at.Sub(s.at),
		user:   e.user - s.user,
		sys:    e.sys - s.sys,
		allocs: e.samples[0].Value.Uint64() - s.samples[0].Value.Uint64(),
		gcCPU:  e.samples[1].Value.Float64() - s.samples[1].Value.Float64(),
	}
	total := e.samples[2].Value.Float64() - s.samples[2].Value.Float64()
	idle := e.samples[3].Value.Float64() - s.samples[3].Value.Float64()
	w.busyCPU = total - idle
	a, b := s.samples[4].Value.Float64Histogram(), e.samples[4].Value.Float64Histogram()
	d := &metrics.Float64Histogram{Buckets: b.Buckets, Counts: make([]uint64, len(b.Counts))}
	for i := range d.Counts {
		d.Counts[i] = b.Counts[i] - a.Counts[i]
	}
	w.sched = d
	return w
}

// histQuantile reads quantile q from a runtime/metrics histogram,
// interpolating linearly inside the bucket that holds it.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var seen float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (target-seen)/float64(c)*(hi-lo)
		}
		seen += float64(c)
	}
	return h.Buckets[len(h.Buckets)-1]
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

func nsSince(t time.Time) float64 { return float64(time.Since(t)) }
