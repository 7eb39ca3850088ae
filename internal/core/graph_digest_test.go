package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"staticpipe/internal/foriter"
	"staticpipe/internal/progs"
)

// digestEntry names one compiled graph of the digest corpus.
type digestEntry struct {
	name string
	src  string
	opts Options
}

// digestCorpus lists the compiled graphs whose bytes are pinned in
// testdata/graph_digests.txt: the seven paper programs at 24, 512 and 4096
// elements under three pass lists, both for-iter schemes and literal
// control off and on; the two-dimensional stencil; and 50 generated
// programs that branch on the index variable, with literal control off and
// on.
func digestCorpus() []digestEntry {
	var out []digestEntry
	mk := []func(int) progs.Program{progs.Fig2, progs.Fig4, progs.Fig5,
		progs.Example1, progs.Example2, progs.Fig3, progs.Weather}
	schemes := []struct {
		name string
		s    foriter.Scheme
	}{{"todd", foriter.Todd}, {"companion", foriter.Companion}}
	for _, f := range mk {
		for _, n := range []int{24, 512, 4096} {
			p := f(n)
			for _, pl := range []string{"balance", "dedup,balance", "none"} {
				for _, s := range schemes {
					for _, lit := range []bool{false, true} {
						out = append(out, digestEntry{
							name: fmt.Sprintf("%s/%d/%s/%s/literal=%v", p.Name, n, pl, s.name, lit),
							src:  p.Source,
							opts: Options{Passes: pl, ForIterScheme: s.s, LiteralControl: lit},
						})
					}
				}
			}
		}
	}
	for _, lit := range []bool{false, true} {
		out = append(out, digestEntry{fmt.Sprintf("laplace2d/literal=%v", lit), laplaceSrc, Options{LiteralControl: lit}})
	}
	rng := rand.New(rand.NewSource(30))
	for k := 0; k < 50; {
		src, _ := randomProgram(rng, 8+rng.Intn(8))
		if !strings.Contains(src, "if i <") && !strings.Contains(src, "if (i =") {
			continue
		}
		for _, lit := range []bool{false, true} {
			out = append(out, digestEntry{fmt.Sprintf("random%02d/literal=%v", k, lit), src, Options{LiteralControl: lit}})
		}
		k++
	}
	return out
}

// compiledDigest is the SHA-256 of the compiled graph's Marshal bytes.
func compiledDigest(t *testing.T, e digestEntry) string {
	t.Helper()
	a, err := CompileArtifact(e.src, e.opts)
	if err != nil {
		t.Fatalf("%s: %v", e.name, err)
	}
	bs, err := a.Compiled.Graph.Marshal()
	if err != nil {
		t.Fatalf("%s: %v", e.name, err)
	}
	sum := sha256.Sum256(bs)
	return hex.EncodeToString(sum[:])
}

// TestCompiledGraphDigests pins every graph of the corpus to its bytes. The
// digests were recorded from the compiler that listed every iteration
// position, and must not be re-pinned to absorb a change in how selections
// are represented.
func TestCompiledGraphDigests(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "graph_digests.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("bad digest line %q", sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	corpus := digestCorpus()
	if len(want) != len(corpus) {
		t.Fatalf("%d recorded digests for a corpus of %d graphs", len(want), len(corpus))
	}
	for _, e := range corpus {
		if got := compiledDigest(t, e); got != want[e.name] {
			t.Errorf("%s: digest %s, want %s", e.name, got, want[e.name])
		}
	}
}
