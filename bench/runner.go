package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupWindow is how long one setup_s sample keeps setting up.
const setupWindow = time.Second

// warmupSeconds is how long the warm-up pass of an open-loop workload
// lasts: long enough to fill its caches and connection pool.
const warmupSeconds = 1.0

// passResult is what one timed pass of a workload measured.
type passResult struct {
	// ops are the latencies, in ms, of the operations the pass made.
	ops []float64
	// work counts the units of work the pass completed.
	work float64
	// wall is the pass's host time in seconds.
	wall float64
}

// session is one set-up workload, ready for passes.
type session interface {
	// pass runs one pass; seconds is the run length a pass of an
	// open-loop workload lasts (pass-count workloads ignore it).
	pass(tr *Tracer, parent int64, seconds float64) (passResult, error)
	close()
}

// workload is one benchmark input set; README.md says why each exists.
type workload struct {
	name string
	// nominal is one pass's host time on the reference two-core host;
	// with minPasses it fixes the pass count from --seconds, so the
	// count is the same on every commit. Zero means one pass that
	// lasts --seconds (an open-loop workload).
	nominal   time.Duration
	minPasses int
	// tracedPasses is how many passes a traced run alternates between
	// untraced and traced to measure trace_overhead_frac.
	tracedPasses int
	// open readies the workload on a set-up environment.
	open func(r *runner, e *env) (session, error)
	// section measures the per-layer probes this workload owns.
	section func(r *runner) error
}

func (w *workload) passes(seconds float64) int {
	if w.nominal == 0 {
		return 1
	}
	return max(w.minPasses, int(math.Round(seconds/w.nominal.Seconds())))
}

// runner collects one workload run's measurements and check results.
type runner struct {
	workload string
	seed     int64
	seconds  float64
	workers  int
	tr       *Tracer

	attempted int
	failed    int
	problems  []string
	metrics   map[string]Metric
}

func newRunner(w string, seed int64, seconds float64, traced bool) *runner {
	r := &runner{workload: w, seed: seed, seconds: seconds, workers: runtime.NumCPU(), metrics: map[string]Metric{}}
	if traced {
		r.tr = newTracer(w)
	}
	return r
}

// attempt counts n operations tried.
func (r *runner) attempt(n int) { r.attempted += n }

// fail counts one failed operation or check.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintf(os.Stderr, "bench: %s: %s\n", r.workload, msg)
}

// put records a metric from its samples; the value is their median.
func (r *runner) put(name string, samples ...float64) {
	s := summarize(samples)
	r.putValue(name, s.Median, "", s)
}

// putValue records a metric whose value is not the samples' median.
func (r *runner) putValue(name string, v float64, note string, s Summary) {
	d, ok := defOf(name)
	if !ok {
		panic("bench: metric not in the table: " + name)
	}
	r.metrics[name] = Metric{Value: v, Unit: d.Unit, Better: d.Better, Bound: d.Bound, Note: note, Summary: s}
}

func (r *runner) record() Record {
	return Record{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Problems: r.problems, Metrics: r.metrics,
	}
}

// measure runs the workload untraced and records the end-to-end
// metrics: set-up, one untimed warm-up pass, then the fixed number of
// timed passes. Each set-up and pass starts from a collected heap, so
// garbage one leaves is not charged to the next.
//
// setup_s is the median of three samples, taken before the warm-up,
// after the middle pass and after the last; each sample sets up back to
// back for setupWindow and is the fastest set-up in it. Other tenants
// of the reference host slow it, by up to a factor of two, for
// stretches from a fraction of a second to minutes; a set-up takes
// ≈5 ms, so a window of a hundred or more usually holds undisturbed
// ones, and its fastest set-up repeats from run to run better than its
// mean (README.md has the figures). The first set-up is the one the
// workload runs on.
func (r *runner) measure(w *workload) error {
	passes := w.passes(r.seconds)
	var setups []float64
	// window sets up for setupWindow and records the fastest set-up;
	// with keep it returns the first set-up instead of releasing it.
	window := func(keep bool) (kept session, keptRelease func(), err error) {
		best := time.Duration(math.MaxInt64)
		for start := time.Now(); best == math.MaxInt64 || time.Since(start) < setupWindow; {
			runtime.GC()
			t0 := time.Now()
			s, release, err := r.ready(w)
			best = min(best, time.Since(t0))
			if err != nil {
				if keptRelease != nil {
					keptRelease()
				}
				return nil, nil, err
			}
			if keep && kept == nil {
				kept, keptRelease = s, release
			} else {
				release()
			}
		}
		setups = append(setups, best.Seconds())
		return kept, keptRelease, nil
	}
	sess, release, err := window(true)
	if err != nil {
		return err
	}
	defer release()

	if _, err := sess.pass(nil, 0, warmupSeconds); err != nil {
		return fmt.Errorf("warm-up pass: %w", err)
	}
	var ops []float64
	var work, wall float64
	for p := 0; p < passes; p++ {
		runtime.GC()
		res, err := sess.pass(nil, 0, r.seconds)
		if err != nil {
			return fmt.Errorf("pass %d: %w", p, err)
		}
		ops = append(ops, res.ops...)
		work += res.work
		wall += res.wall
		for _, at := range []int{(passes + 1) / 2, passes} {
			if p+1 != at {
				continue
			}
			if _, _, err := window(false); err != nil {
				return err
			}
		}
	}
	r.put("setup_s", setups...)
	r.put("op_p50_ms", ops...)
	v, pct := tail(ops)
	r.putValue("op_tail_ms", v, fmt.Sprintf("p%g", pct), summarize(ops))
	r.put("work_per_s", work/wall)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.put("peak_rss_mb", rss)
	return nil
}

// ready sets up an environment and readies the workload on it; release
// frees both.
func (r *runner) ready(w *workload) (s session, release func(), err error) {
	e, err := setUp(r)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	if s, err = w.open(r, e); err != nil {
		e.close()
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	return s, func() { s.close(); e.close() }, nil
}

// overhead alternates untraced and traced passes of the workload and
// records trace_overhead_frac: the traced median operation latency over
// the untraced one, minus one.
func (r *runner) overhead(w *workload) error {
	sess, release, err := r.ready(w)
	if err != nil {
		return err
	}
	defer release()
	burst := r.seconds / float64(w.tracedPasses)
	if _, err := sess.pass(nil, 0, warmupSeconds); err != nil {
		return fmt.Errorf("warm-up pass: %w", err)
	}
	var plain, traced []float64
	for p := 0; p < w.tracedPasses; p++ {
		if p%2 == 0 {
			res, err := sess.pass(nil, 0, burst)
			if err != nil {
				return err
			}
			plain = append(plain, res.ops...)
			continue
		}
		id, end := r.tr.Begin(0, "pass/"+w.name)
		res, err := sess.pass(r.tr, id, burst)
		end()
		if err != nil {
			return err
		}
		traced = append(traced, res.ops...)
	}
	u, t := summarize(plain), summarize(traced)
	r.putValue("trace_overhead_frac", t.Median/u.Median-1, "", summarize([]float64{u.Median, t.Median}))
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// timed returns the host seconds f takes.
func timed(f func()) float64 {
	start := time.Now()
	f()
	return time.Since(start).Seconds()
}

// span runs f inside a span named name (a no-op when untraced).
func (r *runner) span(parent int64, name string, f func(id int64)) {
	id, end := r.tr.Begin(parent, name)
	f(id)
	end()
}
