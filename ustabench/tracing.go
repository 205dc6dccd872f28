package main

import (
	"encoding/json"
	stdnet "net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/sink"
	"repro/internal/users"
	"repro/internal/workload"
)

// Span is one timed interval of the traced run. Spans form a tree through
// Parent (0: root); all spans of one service job share its Group.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Group  string `json:"group,omitempty"`
	Name   string `json:"name"`
	// StartNS and EndNS are nanoseconds since the tracer was created.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// Dur returns the span's duration in seconds.
func (s Span) Dur() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// Tracer keeps spans and counters in memory until the run ends.
type Tracer struct {
	t0       time.Time
	next     atomic.Int64
	mu       sync.Mutex
	spans    []Span
	counters map[string]float64
}

// NewTracer starts a tracer whose clock reads zero now.
func NewTracer() *Tracer { return &Tracer{t0: time.Now(), counters: map[string]float64{}} }

// Now is the tracer clock in nanoseconds.
func (t *Tracer) Now() int64 { return int64(time.Since(t.t0)) }

// Start opens a span and returns its ID and a function that closes it.
func (t *Tracer) Start(name string, parent int64) (id int64, end func()) {
	id = t.next.Add(1)
	start := t.Now()
	return id, func() { t.Add(Span{ID: id, Parent: parent, Name: name, StartNS: start, EndNS: t.Now()}) }
}

// NewID reserves a span ID for a span recorded later with Add.
func (t *Tracer) NewID() int64 { return t.next.Add(1) }

// Add records a finished span.
func (t *Tracer) Add(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Count adds v to a named counter.
func (t *Tracer) Count(name string, v float64) {
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

// Spans returns the recorded spans, in recording order.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes sums each span name's self time in seconds: a span's duration
// minus the part of it covered by its children.
func (t *Tracer) SelfTimes() map[string]float64 {
	spans := t.Spans()
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += s.Dur() - coveredSec(s, children[s.ID])
	}
	return out
}

// coveredSec is how much of parent's interval the union of kids covers.
func coveredSec(parent Span, kids []Span) float64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var total, end int64 = 0, parent.StartNS
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return float64(total) / 1e9
}

// WriteFile writes every span and counter as one JSON document.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := struct {
		Spans    []Span             `json:"spans"`
		Counters map[string]float64 `json:"counters"`
	}{t.spans, t.counters}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// cellProbe instruments one sweep's jobs from outside the program: a
// forwarding wrapper on each job's controller factory marks the cell's
// start (it is the first job hook preparePhone calls), fleet.Config's
// OnResult marks its end, and counting wrappers around the workload, the
// controller and the run sink count the work done. Each job runs on one
// goroutine, so its counters are plain per-job fields read after Run.
type cellProbe struct {
	startNS []int64
	endNS   []int64
	jobs    []jobCounters
}

// jobCounters is one job's work counts, padded to two cache lines so jobs
// running side by side never write the same line.
type jobCounters struct {
	at, boundary, acts, samples int64
	_                           [96]byte
}

func newCellProbe(n int) *cellProbe {
	return &cellProbe{startNS: make([]int64, n), endNS: make([]int64, n), jobs: make([]jobCounters, n)}
}

// wrapJobs returns copies of jobs carrying the probe's forwarding wrappers.
func (p *cellProbe) wrapJobs(tr *Tracer, jobs []fleet.Job) []fleet.Job {
	out := make([]fleet.Job, len(jobs))
	for i, job := range jobs {
		i, jc := i, &p.jobs[i]
		inner := job.Controller
		job.Controller = func(u users.User) device.Controller {
			p.startNS[i] = tr.Now()
			if inner == nil {
				return nil
			}
			c := inner(u)
			if c == nil {
				return nil
			}
			return &countingController{Controller: c, acts: &jc.acts}
		}
		job.Workload = wrapWorkload(job.Workload, &jc.at, &jc.boundary)
		out[i] = job
	}
	return out
}

// wrapSink counts the samples each job delivers to s.
func (p *cellProbe) wrapSink(s sink.Sink) sink.Sink {
	if s == nil {
		return nil
	}
	return countingSink{Sink: s, jobs: p.jobs}
}

type countingController struct {
	device.Controller
	acts *int64
}

func (c *countingController) Act(p *device.Phone) {
	*c.acts++
	c.Controller.Act(p)
}

type countingSink struct {
	sink.Sink
	jobs []jobCounters
}

func (c countingSink) Accept(job sink.JobID, s device.Sample) {
	c.jobs[job].samples++
	c.Sink.Accept(job, s)
}

// countedWorkload forwards a workload and counts its sample lookups. It
// forwards the cursor fast path, and its boundary-aware twin forwards
// NextChange, so neither engine changes path under the wrapper.
type countedWorkload struct {
	w  workload.Workload
	at *int64
}

func (c countedWorkload) Name() string      { return c.w.Name() }
func (c countedWorkload) Duration() float64 { return c.w.Duration() }

func (c countedWorkload) At(t float64) workload.Sample {
	*c.at++
	return c.w.At(t)
}

func (c countedWorkload) Cursor() func(t float64) workload.Sample {
	next := workload.SamplerOf(c.w)
	return func(t float64) workload.Sample {
		*c.at++
		return next(t)
	}
}

type boundedWorkload struct {
	countedWorkload
	next     func(float64) float64
	boundary *int64
}

func (b boundedWorkload) NextChange(t float64) float64 {
	*b.boundary++
	return b.next(t)
}

func wrapWorkload(w workload.Workload, at, boundary *int64) workload.Workload {
	c := countedWorkload{w: w, at: at}
	if next := workload.NextChangeOf(w); next != nil {
		return boundedWorkload{countedWorkload: c, next: next, boundary: boundary}
	}
	return c
}

// countingListener counts every byte read from and written to the
// connections it accepts (the worker daemon's wire traffic).
type countingListener struct {
	stdnet.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (stdnet.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, bytes: l.bytes}, nil
}

type countingConn struct {
	stdnet.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}
