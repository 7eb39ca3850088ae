package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"staticpipe/internal/core"
	"staticpipe/internal/machine"
	"staticpipe/internal/progs"
	"staticpipe/internal/trace"
	"staticpipe/internal/value"
)

// placedGolden pins `dfsim -machine -pes 8 -place mincost [-butterfly]
// -trace FILE` on every testdata program. The values were recorded from an
// engine that planned every resident cell every cycle and agreed with the
// stale-cell skip byte for byte, so they check that skip independently.
// The traces run to megabytes, so only their SHA-256 digests are kept, as
// for the outputs (their JSON encoding, which is exact).
var placedGolden = []struct {
	prog                 string
	butterfly            bool
	cycles               int
	results, acks, ops   int
	peBusy, fuBusy       []int
	outputsSHA, traceSHA string
}{
	{"example1", false, 192, 358, 358, 76, []int{56, 32, 32, 52, 52, 54, 14, 0}, []int{38, 38},
		"42c9a1077c1446c9218b32f91c4bdc9213e52558cf87cd9df4dd6c0dafbe7b44", "c48d16107e1dc508e7094b7f747865348d44506e884997ada90b28a4a8f96f22"},
	{"example1", true, 302, 358, 358, 76, []int{56, 32, 32, 52, 52, 54, 14, 0}, []int{38, 38},
		"42c9a1077c1446c9218b32f91c4bdc9213e52558cf87cd9df4dd6c0dafbe7b44", "3869397d853414a0e1a63769fd77b0092e73da2535ac96dbfa59d5f5a4355beb"},
	{"fig3", false, 401, 1598, 1598, 289, []int{232, 213, 86, 220, 195, 132, 228, 52}, []int{145, 144},
		"f72b859f7673d65b2d3a86501c6b088bbd456ea666c0372c8494f9e4bc9afc10", "c85c8e905193ac24a759817dd336945679bf0140493e86b11054da2233a04657"},
	{"fig3", true, 639, 1598, 1598, 289, []int{232, 213, 86, 220, 195, 132, 228, 52}, []int{145, 144},
		"f72b859f7673d65b2d3a86501c6b088bbd456ea666c0372c8494f9e4bc9afc10", "72333ca393753fc37fbcf1516e949d992a2ffbe02ef34d7af2459af46bc62985"},
	{"laplace2d", false, 1511, 8716, 8716, 256, []int{704, 816, 1024, 1096, 1204, 1060, 1420, 1100}, []int{128, 128},
		"0e4bc9c60cb7163b85a326e5ee9425ec92508de0582a4716904a399ccc2b7eec", "bef5bc2b771d2e12f4ac8a7cf21d4951eb1eae5ba57597967cb08e1ba2fce819"},
	{"laplace2d", true, 1668, 8716, 8716, 256, []int{704, 816, 1024, 1096, 1204, 1060, 1420, 1100}, []int{128, 128},
		"0e4bc9c60cb7163b85a326e5ee9425ec92508de0582a4716904a399ccc2b7eec", "3e8340e0610b02167e5e1347464e720f860fdc6cb7db04c76713e613d3b4d545"},
	{"recurrence", false, 108, 212, 212, 33, []int{30, 27, 23, 13, 29, 24, 28, 6}, []int{17, 16},
		"305cd7e43471216f1638024ed0c45da5bacc65b1ac4bc29445783b86746359a2", "8213559eeee8fe0960a1d890b44c0516b8a3db33ebc5e5d414ae56d28903260a"},
	{"recurrence", true, 180, 212, 212, 33, []int{30, 27, 23, 13, 29, 24, 28, 6}, []int{17, 16},
		"305cd7e43471216f1638024ed0c45da5bacc65b1ac4bc29445783b86746359a2", "6c48ef41d9586a9c1c339834f805cbb24df7d6b2d551016bc50f4570185fbb01"},
	{"weather", false, 759, 5135, 5135, 597, []int{656, 640, 652, 532, 560, 644, 568, 206}, []int{299, 298},
		"6e893323351f927576ef3fec11706350f995a8bcbf13b8ce28015b74d1392346", "79b65f4cd47b1ab09aaf3f368d36aba5f22462b8d451cb9beb69b957e62d407a"},
	{"weather", true, 998, 5135, 5135, 597, []int{656, 640, 652, 532, 560, 644, 568, 206}, []int{299, 298},
		"6e893323351f927576ef3fec11706350f995a8bcbf13b8ce28015b74d1392346", "2ff57a04026b7e4c035b31a73be428bf076b179d3c162d2137e2042688339e3f"},
}

// TestPlacedMachineGolden runs each placedGolden configuration the way
// dfsim does (ramp inputs, 8 PEs, dfsim's default 2 FUs and 2 AMs, a
// place.Plan min-cost placement, a Chrome trace) and compares cycles,
// packet counts by kind, PE and FU busy counters, and the output and trace
// digests.
func TestPlacedMachineGolden(t *testing.T) {
	for _, want := range placedGolden {
		name := want.prog
		if want.butterfly {
			name += "-butterfly"
		}
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("..", "..", "testdata", want.prog+".val"))
			if err != nil {
				t.Fatal(err)
			}
			art, err := core.CompileArtifact(string(src), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			mp, err := art.Machine()
			if err != nil {
				t.Fatal(err)
			}
			inputs := map[string][]value.Value{}
			for _, in := range art.Checked.Inputs {
				inputs[in.Name] = progs.Synth("ramp", in.Len())
			}
			var buf bytes.Buffer
			chrome := trace.NewChrome(&buf)
			cfg := machine.Config{PEs: 8, FUs: 2, AMs: 2, Tracer: chrome, Inputs: inputs}
			if want.butterfly {
				cfg.Network = machine.Butterfly
			}
			if err := applyPlacement("mincost", mp, art.Compiled.Graph, &cfg); err != nil {
				t.Fatal(err)
			}
			res, err := mp.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := chrome.Close(); err != nil {
				t.Fatal(err)
			}
			out, err := json.Marshal(res.Outputs)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles != want.cycles {
				t.Errorf("cycles %d, want %d", res.Cycles, want.cycles)
			}
			if got := [3]int{res.Packets["result"], res.Packets["ack"], res.Packets["operation"]}; got != [3]int{want.results, want.acks, want.ops} {
				t.Errorf("result/ack/operation packets %v, want %v", got, [3]int{want.results, want.acks, want.ops})
			}
			if !reflect.DeepEqual(res.PEBusy, want.peBusy) || !reflect.DeepEqual(res.FUBusy, want.fuBusy) {
				t.Errorf("busy counters PE %v FU %v, want PE %v FU %v", res.PEBusy, res.FUBusy, want.peBusy, want.fuBusy)
			}
			if got := sha256hex(out); got != want.outputsSHA {
				t.Errorf("outputs digest %s, want %s", got, want.outputsSHA)
			}
			if got := sha256hex(buf.Bytes()); got != want.traceSHA {
				t.Errorf("Chrome trace digest %s, want %s (%d bytes)", got, want.traceSHA, buf.Len())
			}
		})
	}
}

func sha256hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
