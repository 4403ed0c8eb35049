//go:build chaos

package jobs

// The chaos harness exercises the crash-safety claims against the real
// binary, not a test double: it builds `cryowire`, boots `cryowire
// serve -jobs-dir`, SIGKILLs the process mid-job (no drain, no
// warning — the kernel just takes it), restarts it on the same store,
// and asserts the recovered frontier is byte-identical to an
// uninterrupted in-process run of the same spec. A second test pushes
// a >4096-candidate search through the async API, which the
// synchronous endpoint refuses.
//
// These tests fork processes and run multi-second searches, so they
// hide behind the `chaos` build tag and run in their own CI step:
//
//	go test -tags chaos -run TestChaos ./internal/jobs/

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cryowire/internal/dse"
	"cryowire/internal/platform"
)

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

// chaosBinary builds the cryowire binary once per test run.
func chaosBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "cryowire-chaos-")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "cryowire")
		out, err := exec.Command("go", "build", "-o", buildBin, "cryowire/cmd/cryowire").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildBin
}

// serveProc is one `cryowire serve` incarnation.
type serveProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
}

// startServe boots the binary on a random port over jobsDir and waits
// until it reports its bound address and passes /readyz.
func startServe(t *testing.T, bin, jobsDir string) *serveProc {
	t.Helper()
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-jobs-dir", jobsDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening addr="); i >= 0 {
				addr := strings.Fields(line[i+len("listening addr="):])[0]
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("serve did not report a listen address")
	}
	p := &serveProc{cmd: cmd, base: "http://" + addr}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(p.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return p
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	cmd.Process.Kill()
	t.Fatal("serve never became ready")
	return nil
}

// kill9 SIGKILLs the process — the crash under test, not a shutdown.
func (p *serveProc) kill9() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// terminate ends the process politely at test cleanup.
func (p *serveProc) terminate() {
	p.cmd.Process.Signal(os.Interrupt)
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}

// httpJSON issues one request and decodes the JSON response into v.
func httpJSON(t *testing.T, method, url, body string, v any) int {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("decode %s %s (%d): %v\n%s", method, url, resp.StatusCode, err, raw)
		}
	}
	return resp.StatusCode
}

// pollUntil polls the job until cond holds or the deadline passes.
func pollUntil(t *testing.T, base, id string, timeout time.Duration, cond func(State) bool) State {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var st State
	for time.Now().Before(deadline) {
		if code := httpJSON(t, "GET", base+"/v1/dse/jobs/"+id, "", &st); code != 200 {
			t.Fatalf("poll status %d", code)
		}
		if cond(st) {
			return st
		}
		if st.Status == StatusFailed {
			t.Fatalf("job failed: %s", st.Error)
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("timed out polling job %s (last state %+v)", id, st)
	return State{}
}

// TestChaosKillMidJobResumesByteIdentical is the headline crash test:
// SIGKILL the server mid-search, restart it on the same store, and the
// finished frontier must be byte-identical to an uninterrupted run.
func TestChaosKillMidJobResumesByteIdentical(t *testing.T) {
	bin := chaosBinary(t)
	jobsDir := filepath.Join(t.TempDir(), "jobs")

	p1 := startServe(t, bin, jobsDir)
	// 16 quick-space candidates on one worker, checkpointed after every
	// evaluation (the engine default of 64 per checkpoint would land all
	// sixteen at once), so the 25ms poll below sees the first completed
	// candidate (~0.4s in) long before the remaining fifteen finish —
	// the kill reliably lands mid-job.
	body := `{"quick": true, "workers": 1, "checkpoint_every": 1,
		"config": {"warmup_cycles": 20000, "measure_cycles": 100000}}`
	var st State
	if code := httpJSON(t, "POST", p1.base+"/v1/dse/jobs", body, &st); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}

	// Wait until real progress exists, then pull the plug.
	mid := pollUntil(t, p1.base, st.ID, time.Minute, func(s State) bool { return s.Evaluated >= 1 })
	if mid.Status == StatusDone {
		t.Fatalf("job finished before the kill (evaluated %d); grow the cycle counts", mid.Evaluated)
	}
	p1.kill9()

	// The corpse: state.json still claims the job is running.
	onDisk, err := os.ReadFile(filepath.Join(jobsDir, st.ID, stateFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(onDisk, []byte(`"running"`)) {
		t.Fatalf("expected crashed job to be on disk as running, got:\n%s", onDisk)
	}

	// Restart on the same store; recovery must resume it unprompted.
	p2 := startServe(t, bin, jobsDir)
	defer p2.terminate()
	fin := pollUntil(t, p2.base, st.ID, 5*time.Minute, func(s State) bool { return s.Status == StatusDone })
	if fin.Evaluated != 16 {
		t.Fatalf("recovered job evaluated %d, want 16", fin.Evaluated)
	}

	resp, err := http.Get(p2.base + "/v1/dse/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("result status %d err %v", resp.StatusCode, err)
	}

	// Reference: the same spec run uninterrupted, in-process.
	var sp Spec
	if b, err := os.ReadFile(filepath.Join(jobsDir, st.ID, specFile)); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	cfg, err := sp.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Platform = platform.New()
	res, err := dse.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered frontier is not byte-identical to an uninterrupted run:\ngot:  %s\nwant: %s", got, want)
	}

	// The restart counted the recovery.
	mresp, err := http.Get(p2.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "cryowire_jobs_resumed_total 1") {
		t.Fatal("metrics do not show the resumed job")
	}
}

// TestChaosLargeJobBeyondSyncCap drives a search past the synchronous
// endpoint's 4096-candidate cap through the async API and completes it.
func TestChaosLargeJobBeyondSyncCap(t *testing.T) {
	bin := chaosBinary(t)
	jobsDir := filepath.Join(t.TempDir(), "jobs")
	p := startServe(t, bin, jobsDir)
	defer p.terminate()

	// 20 temps x 2 modes x 4 depths x 2 nets x 13 workloads = 4160
	// candidates with minimal per-candidate simulations.
	body := `{"quick": true,
		"temps_k": [300, 290, 280, 270, 260, 250, 240, 230, 220, 210,
		            200, 190, 180, 170, 160, 150, 140, 120, 100, 77],
		"depths": [14, 15, 16, 17],
		"workloads": ["blackscholes", "bodytrack", "canneal", "dedup",
		              "facesim", "ferret", "fluidanimate", "freqmine",
		              "raytrace", "streamcluster", "swaptions", "vips", "x264"],
		"config": {"warmup_cycles": 100, "measure_cycles": 200}}`

	// The synchronous endpoint refuses it.
	var errBody struct {
		Error string `json:"error"`
	}
	if code := httpJSON(t, "POST", p.base+"/v1/dse", body, &errBody); code != http.StatusBadRequest {
		t.Fatalf("sync accepted %d candidates: status %d", 4160, code)
	}

	var st State
	if code := httpJSON(t, "POST", p.base+"/v1/dse/jobs", body, &st); code != http.StatusAccepted {
		t.Fatalf("async submit status %d", code)
	}
	if st.Total != 4160 {
		t.Fatalf("job total = %d, want 4160", st.Total)
	}
	fin := pollUntil(t, p.base, st.ID, 10*time.Minute, func(s State) bool { return s.Status == StatusDone })
	if fin.Evaluated != 4160 {
		t.Fatalf("evaluated %d of 4160", fin.Evaluated)
	}

	resp, err := http.Get(p.base + "/v1/dse/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var res dse.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("result parse: %v", err)
	}
	if res.Evaluated != 4160 || res.SpaceSize != 4160 || len(res.Frontier) == 0 {
		t.Fatalf("result evaluated=%d space=%d frontier=%d", res.Evaluated, res.SpaceSize, len(res.Frontier))
	}
}
