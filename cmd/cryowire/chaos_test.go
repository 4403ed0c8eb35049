//go:build chaos

package main

// The chaos test exercises the DSE journal's crash-safety claim against
// the real binary, not a test double: it builds `cryowire`, starts a
// journaled search, SIGKILLs the process once the first checkpoint is
// on disk (no signal handler runs, the kernel just takes it), resumes
// the search with -resume, and requires output byte-identical to a run
// that never journaled.
//
// It forks processes and runs multi-second searches, so it hides behind
// the `chaos` build tag and runs in its own CI step:
//
//	go test -tags chaos -run TestChaos ./cmd/cryowire/

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// chaosBinary builds the cryowire binary into a test temp directory.
func chaosBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cryowire")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runDSE runs one search to completion and returns its stdout.
func runDSE(t *testing.T, bin string, args ...string) []byte {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("cryowire %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

// TestChaosKillMidSearchResumesByteIdentical is the crash test: SIGKILL
// a journaled search after its first checkpoint, resume it, and the
// output must match an uninterrupted run byte for byte.
func TestChaosKillMidSearchResumesByteIdentical(t *testing.T) {
	bin := chaosBinary(t)
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	// 2 temps x 3 modes x 4 depths x 4 nets x 2 workloads = 192
	// candidates on one worker: three 64-candidate checkpoints, the
	// first about a second in, so the kill lands mid-search.
	search := []string{"dse", "-workers", "1", "-temps", "300,77",
		"-workloads", "x264,blackscholes", "-json"}
	const candidates = 192

	want := runDSE(t, bin, search...)

	cmd := exec.Command(bin, append(search, "-journal", journal)...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() { cmd.Wait(); close(exited) }()
	deadline := time.After(time.Minute)
	var lines int
	for lines <= 1 { // the header alone is one line
		select {
		case <-exited:
			t.Fatal("search finished before the kill; grow the search")
		case <-deadline:
			cmd.Process.Kill()
			t.Fatal("no checkpoint reached the journal within a minute")
		case <-time.After(5 * time.Millisecond):
		}
		b, err := os.ReadFile(journal)
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		lines = bytes.Count(b, []byte("\n"))
	}
	cmd.Process.Kill()
	<-exited
	if b, err := os.ReadFile(journal); err != nil {
		t.Fatal(err)
	} else if lines = bytes.Count(b, []byte("\n")); lines > candidates {
		t.Fatalf("journal holds all %d candidates: the kill landed after the search", lines-1)
	}
	t.Logf("killed with %d journal lines", lines)

	got := runDSE(t, bin, append(search, "-journal", journal, "-resume")...)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed search is not byte-identical to an uninterrupted run:\ngot:  %s\nwant: %s", got, want)
	}
	b, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(b, []byte("\n")); n != candidates+1 {
		t.Fatalf("resumed journal has %d lines, want header + %d candidates", n, candidates)
	}
}
