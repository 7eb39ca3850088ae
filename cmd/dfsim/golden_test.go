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
	"staticpipe/internal/place"
	"staticpipe/internal/progs"
	"staticpipe/internal/trace"
	"staticpipe/internal/value"
)

// placedGolden pins `dfsim -machine -pes 8 -place mincost [-butterfly]
// -trace FILE` on every testdata program. An engine that planned every
// resident cell every cycle agreed with the stale-cell skip on these values
// byte for byte, so they check that skip independently.
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
	{"example1", false, 192, 356, 356, 76, []int{56, 32, 32, 52, 50, 54, 14, 0}, []int{38, 38},
		"42c9a1077c1446c9218b32f91c4bdc9213e52558cf87cd9df4dd6c0dafbe7b44", "c3b4af9b5862ede52954a7e019cd1969f8917ffe3f8006d965fbeb87c6c73780"},
	{"example1", true, 302, 356, 356, 76, []int{56, 32, 32, 52, 50, 54, 14, 0}, []int{38, 38},
		"42c9a1077c1446c9218b32f91c4bdc9213e52558cf87cd9df4dd6c0dafbe7b44", "6ed52eacaf5822228852d5e6dbae04642c97949573c5a3e1b2fd12de2b9371bd"},
	{"fig3", false, 422, 1636, 1636, 289, []int{208, 187, 130, 193, 173, 125, 178, 202}, []int{145, 144},
		"f72b859f7673d65b2d3a86501c6b088bbd456ea666c0372c8494f9e4bc9afc10", "2a9393ff5e6f07279ef3225f94639e268962814b342822dfb4d242edf5c0ba6a"},
	{"fig3", true, 672, 1636, 1636, 289, []int{208, 187, 130, 193, 173, 125, 178, 202}, []int{145, 144},
		"f72b859f7673d65b2d3a86501c6b088bbd456ea666c0372c8494f9e4bc9afc10", "331c34e4c90136193078b333c3abe15f5c7451ff094868225cc94c0202675a7a"},
	{"laplace2d", false, 1509, 8644, 8644, 256, []int{704, 816, 1024, 1096, 1168, 1060, 1384, 1100}, []int{128, 128},
		"0e4bc9c60cb7163b85a326e5ee9425ec92508de0582a4716904a399ccc2b7eec", "cc103786458f894bef2e30d4d8e1caa058a6a65ae6b4fe58a93aacb63c39fcaa"},
	{"laplace2d", true, 1678, 8644, 8644, 256, []int{704, 816, 1024, 1096, 1168, 1060, 1384, 1100}, []int{128, 128},
		"0e4bc9c60cb7163b85a326e5ee9425ec92508de0582a4716904a399ccc2b7eec", "fab52bbead852d89dce33dc4163b16d3cf5c3907b96de29f08b6c2aca605b8a6"},
	{"recurrence", false, 109, 216, 216, 33, []int{30, 25, 18, 29, 28, 25, 29, 0}, []int{17, 16},
		"305cd7e43471216f1638024ed0c45da5bacc65b1ac4bc29445783b86746359a2", "9dbcb9e19cd9f80041c479f1df5ed0f7f6e4718684974511df89475aafcab6fa"},
	{"recurrence", true, 176, 216, 216, 33, []int{30, 25, 18, 29, 28, 25, 29, 0}, []int{17, 16},
		"305cd7e43471216f1638024ed0c45da5bacc65b1ac4bc29445783b86746359a2", "39fbe3dc99ac18377a3530135074c6c140e8a6a3380d4cb4f4050dc8f3e44204"},
	{"weather", false, 748, 5048, 5048, 597, []int{616, 600, 608, 532, 487, 485, 600, 443}, []int{299, 298},
		"6e893323351f927576ef3fec11706350f995a8bcbf13b8ce28015b74d1392346", "d526b3417664719a4972f8380983491e564e5177493d1d484ad5e7173270240d"},
	{"weather", true, 1068, 5048, 5048, 597, []int{616, 600, 608, 532, 487, 485, 600, 443}, []int{299, 298},
		"6e893323351f927576ef3fec11706350f995a8bcbf13b8ce28015b74d1392346", "7cf223d0749f5de46e3f4e8a59c8c4451afd48cf7ec59f25b6580dffaff3b954"},
}

// TestPlacedMachineGolden runs each placedGolden configuration the way
// dfsim does (ramp inputs, 8 PEs, dfsim's default 2 FUs and 2 AMs, a
// place.Apply min-cost placement, a Chrome trace) and compares cycles,
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
			if err := place.Apply("mincost", art.Compiled.Graph, &cfg, nil); err != nil {
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
