package main

import (
	"sync"
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, StartNS: 0, EndNS: 100},
		// Overlapping children count once; a child running past its
		// parent is clipped to the parent.
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, StartNS: 20, EndNS: 50},
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 120},
		// A grandchild reduces only its own parent's self time.
		{ID: 5, Parent: 3, StartNS: 25, EndNS: 35},
		{ID: 6, StartNS: 200, EndNS: 260},
	}
	fillSelfTimes(spans)
	want := map[int64]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 60}
	for _, s := range spans {
		if s.SelfNS != want[s.ID] {
			t.Errorf("span %d: self %d ns, want %d", s.ID, s.SelfNS, want[s.ID])
		}
	}
	if got := selfByName([]Span{{Name: "a", SelfNS: 1e9}, {Name: "a", SelfNS: 5e8}})["a"]; got != 1.5 {
		t.Errorf("selfByName = %g s, want 1.5", got)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	tr.tag("w")
	id, end := tr.Begin(0, "x")
	end()
	if id != 0 || tr.Add(0, "y", time.Now(), time.Now()) != 0 || tr.Spans() != nil {
		t.Error("a nil tracer recorded something")
	}
}

func TestTracerNestsAndIsSafeForConcurrentUse(t *testing.T) {
	tr := newTracer("w")
	root, end := tr.Begin(0, "root")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, end := tr.Begin(root, "child")
			time.Sleep(time.Millisecond)
			end()
		}()
	}
	wg.Wait()
	end()
	tr.tag("v")
	_, endProbe := tr.Begin(0, "probe")
	endProbe()
	spans := tr.Spans()
	if len(spans) != 10 {
		t.Fatalf("%d spans, want 10", len(spans))
	}
	for _, s := range spans {
		want := "w"
		if s.Name == "probe" {
			want = "v"
		}
		if s.Workload != want || s.EndNS < s.StartNS {
			t.Errorf("bad span %+v", s)
		}
		if s.Name == "child" && s.Parent != root {
			t.Errorf("child parent %d, want %d", s.Parent, root)
		}
		if s.SelfNS < 0 || s.SelfNS > s.EndNS-s.StartNS {
			t.Errorf("span %d self %d outside [0, %d]", s.ID, s.SelfNS, s.EndNS-s.StartNS)
		}
	}
}
