package noc

import (
	"fmt"
	"strings"
	"testing"

	"cryowire/internal/phys"
)

func factoryTimings() (mesh, bus Timing) {
	m := phys.DefaultMOSFET()
	op := Op77()
	return MeshTiming(op, m, 1), BusTiming(op, m)
}

// DesignNames must list exactly the designs the factory builds — the
// facade's NoCDesignNames reads this list, so drift here breaks the
// public contract.
func TestDesignNamesComplete(t *testing.T) {
	want := []string{"mesh", "cmesh", "fbfly", "sharedbus", "cryobus", "cryobus-2way"}
	got := DesignNames()
	if len(got) != len(want) {
		t.Fatalf("DesignNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DesignNames()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// Every advertised name must build a working 64-node network with a
// positive zero-load latency.
func TestNewByNameBuildsEveryDesign(t *testing.T) {
	meshT, busT := factoryTimings()
	for _, name := range DesignNames() {
		n, err := NewByName(name, 64, meshT, busT)
		if err != nil {
			t.Fatalf("NewByName(%q, 64): %v", name, err)
		}
		if n == nil {
			t.Fatalf("NewByName(%q, 64) returned a nil network", name)
		}
		if n.Nodes() != 64 {
			t.Errorf("NewByName(%q, 64).Nodes() = %d", name, n.Nodes())
		}
		if zl := n.ZeroLoadLatency(); zl <= 0 {
			t.Errorf("NewByName(%q, 64).ZeroLoadLatency() = %v, want > 0", name, zl)
		}
	}
}

func TestNewByNameErrors(t *testing.T) {
	meshT, busT := factoryTimings()
	// A name outside the table, ring and torus included, is an error
	// that lists the designs that exist.
	for _, name := range []string{"hypercube", "ring", "torus"} {
		_, err := NewByName(name, 64, meshT, busT)
		if err == nil || !strings.Contains(err.Error(), "cryobus-2way") {
			t.Errorf("NewByName(%q) error = %v, want one listing the designs", name, err)
		}
	}
	for _, nodes := range []int{0, -8} {
		if _, err := NewByName("mesh", nodes, meshT, busT); err == nil {
			t.Errorf("NewByName(mesh, %d) accepted a non-positive node count", nodes)
		}
	}
	// Mesh-family designs need a square (or 4·k²) layout; 60 is neither.
	for _, name := range []string{"mesh", "cmesh", "fbfly"} {
		if _, err := NewByName(name, 60, meshT, busT); err == nil {
			t.Errorf("NewByName(%q, 60) accepted a non-square node count", name)
		}
	}
}

// Every network must reject a packet whose source or destination it
// does not have with a panic naming the node, instead of aliasing it
// onto a real node (integer division truncates −1 to router 0) or
// dying on a raw index. Broadcast is the one out-of-range destination
// a bus accepts.
func TestTryInjectRejectsUnknownNodes(t *testing.T) {
	meshT, busT := factoryTimings()
	type design struct {
		name string
		mk   func() Network
	}
	var designs []design
	for _, name := range DesignNames() {
		name := name
		designs = append(designs, design{name, func() Network {
			n, err := NewByName(name, 64, meshT, busT)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}})
	}
	designs = append(designs, design{"hybrid", func() Network { return NewHybridCryoBus(busT, meshT) }})
	for _, d := range designs {
		nodes := d.mk().Nodes()
		for _, tc := range []struct {
			src, dst int
			want     string
		}{
			{-1, 1, "no source node -1"},
			{nodes, 1, fmt.Sprintf("no source node %d", nodes)},
			{0, nodes, fmt.Sprintf("no node %d", nodes)},
			{0, -5, "no node -5"},
		} {
			t.Run(fmt.Sprintf("%s/%d→%d", d.name, tc.src, tc.dst), func(t *testing.T) {
				net := d.mk()
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("TryInject(%d→%d) accepted; want a panic", tc.src, tc.dst)
					}
					if msg := fmt.Sprint(r); !strings.Contains(msg, tc.want) {
						t.Errorf("panic %q, want it to say %q", msg, tc.want)
					}
				}()
				net.TryInject(&Packet{Src: tc.src, Dst: tc.dst, Flits: 1})
			})
		}
	}
}
