package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestValidateAddr(t *testing.T) {
	for _, tc := range []struct {
		addr string
		ok   bool
	}{
		{":8080", true},
		{"localhost:0", true},
		{"127.0.0.1:65535", true},
		{"no-port", false},
		{":notanumber", false},
		{":65536", false},
		{":-1", false},
	} {
		err := validateAddr(tc.addr)
		if tc.ok && err != nil {
			t.Errorf("validateAddr(%q) = %v, want nil", tc.addr, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("validateAddr(%q) = nil, want error", tc.addr)
		}
	}
}

func TestValidateProfileFlagsWritability(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "cpu.prof")
	if err := validateProfileFlags(good, "", false); err != nil {
		t.Errorf("writable path rejected: %v", err)
	}
	// Validation probes by creating the file, exactly as the profiler
	// will — so a bad parent directory is caught before any work runs.
	bad := filepath.Join(dir, "missing-subdir", "cpu.prof")
	if err := validateProfileFlags(bad, "", false); err == nil {
		t.Error("path in a missing directory accepted")
	}
	if err := validateProfileFlags("", bad, false); err == nil {
		t.Error("memprofile path in a missing directory accepted")
	}
}

func TestValidateProfileFlagsCombinations(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "out.prof")
	// CPU profiling is exclusive with serve's -pprof endpoint.
	if err := validateProfileFlags(p, "", true); err == nil || !strings.Contains(err.Error(), "-pprof") {
		t.Errorf("cpuprofile+pprof: err = %v, want -pprof conflict", err)
	}
	// The heap profile does not conflict with the pprof endpoint.
	if err := validateProfileFlags("", p, true); err != nil {
		t.Errorf("memprofile+pprof rejected: %v", err)
	}
	// Both profiles into one file would interleave two pprof streams.
	if err := validateProfileFlags(p, p, false); err == nil || !strings.Contains(err.Error(), "same file") {
		t.Errorf("same-file profiles: err = %v, want same-file conflict", err)
	}
	// No profiles requested is always fine.
	if err := validateProfileFlags("", "", true); err != nil {
		t.Errorf("empty flags rejected: %v", err)
	}
}

func TestStartProfilesWritesFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	stop, err := startProfiles(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestDSEErrorsCarryOnePrefix pins what `cryowire dse` prints for an
// engine error, a rejected configuration (exit 2) and a failed search
// (exit 1): the command name once, not followed by the engine's own
// "dse: " prefix.
func TestDSEErrorsCarryOnePrefix(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.jsonl")
	_, openErr := os.Open(missing)
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-strategy", "bogus"}, 2,
			`cryowire dse: unknown strategy "bogus" (have grid, random, hillclimb, surrogate-hillclimb, ei, screen)` + "\n"},
		{[]string{"-quick", "-strategy", "ei", "-prior", missing}, 1,
			"cryowire dse: prior journal " + missing + ": " + openErr.Error() + "\n"},
	} {
		out, err := os.CreateTemp(t.TempDir(), "stderr")
		if err != nil {
			t.Fatal(err)
		}
		stderr := os.Stderr
		os.Stderr = out
		code := dseMain(tc.args)
		os.Stderr = stderr
		got, err := os.ReadFile(out.Name())
		out.Close()
		if err != nil {
			t.Fatal(err)
		}
		if code != tc.code || string(got) != tc.want {
			t.Errorf("cryowire dse %s: exit %d, printed %q; want exit %d, %q",
				strings.Join(tc.args, " "), code, got, tc.code, tc.want)
		}
	}
}
