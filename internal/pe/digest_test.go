package pe

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"staticpipe/internal/graph"
	"staticpipe/internal/val"
	"staticpipe/internal/value"
)

// digestCase is one primitive expression compiled by a fresh builder: a
// 1-D builder over [2, 13] with arrays A and B on [0, 15] and parameter
// k = 3, or (twoD) the 2-D builder of twod_test.go over [1, 4]×[1, 5] with
// U on [0, 5]×[0, 6].
type digestCase struct {
	src  string
	twoD bool
}

// digestCases covers every path through the selection code: windows,
// static conditions (nested, with an arm selected for no position, with
// contiguous and broken index streams in either dimension), constant arms
// and constant streams, and static conditions under a data-dependent one.
var digestCases = []digestCase{
	{"A[i-1] + A[i+1]", false},
	{"A[i+(k-3)] * 2.", false},
	{"3.", false},
	{"i", false},
	{"if i < 5 then A[i] else B[i+1] endif", false},
	{"if (i = 2) | (i = 9) then i else i * 2 endif", false},
	{"if i < 5 then i else 0 endif", false},
	{"if i < 8 then (if i > 4 then A[i-2] else B[i] endif) else (if i < 0 then A[i] else B[i+2] endif) endif", false},
	{"if i < 0 then A[i] else B[i] endif", false},
	{"if i > 20 then 1. else A[i] endif", false},
	{"if i < 4 then 2. else A[i] endif", false},
	{"let c : real := 2. in if i > 3 then A[i] + c else c endif endlet", false},
	{"if A[i] > 0. then (if i < 5 then B[i] else i * 1. endif) else 0.5 endif", false},
	{"if A[i] > B[i] then (if i < 9 then A[i+1] else A[i-1] endif) else B[i-2] endif", false},
	{"if (i = 3) | (i = 4) | (i = 10) then A[i] - B[i] else A[i] + B[i] endif", false},
	{"U[i-1, j] + U[i+1, j] + i - j", true},
	{"if (i = 1) | (j = 1) then U[i, j] else -(U[i, j]) endif", true},
	{"if j < 3 then j else i endif", true},
	{"if i = 2 then j + U[i, j] else i + U[i, j] endif", true},
	{"if U[i, j] > 1. then (if j > 2 then U[i, j-1] else j * 1. endif) else U[i+1, j+1] endif", true},
	{"3.", true},
}

// digestWant holds the SHA-256 of Graph.Marshal for each case, without and
// with literal control. The values were recorded from the compiler that
// listed every iteration position, and must not be re-pinned to absorb a
// change in how selections are represented.
var digestWant = [][2]string{
	{"12b47d38c5ba632cbf620e06a6b3e906e329e2fb8b9ef66048b0ea8427da4408", "84941de90df6c7583a13efd3c32092a2b4008bcf11ac5a85700cec4dde0a5768"},
	{"a73b5ba2c490ae2051be7fdec4dcfdbc5cf57e41132ac0275e23ec8024060fae", "75b0429abd399cc755147c1ac7899cd461084b928e08d410f3449dd85b529d7f"},
	{"b2ccfdaa1af6d1cd7e5ddda1fc291e41a6a1b01706a0f98204b54e5bc10f1951", "b2ccfdaa1af6d1cd7e5ddda1fc291e41a6a1b01706a0f98204b54e5bc10f1951"},
	{"39565f92d46705426aca0dd53d4c95845ffad71e4ceee0dc97b55beb7a49e7e7", "84bff4c47a1c0400a3986ad967105c1558b98608ce62627f56d32401ffe4e31a"},
	{"ee7fce7f0d80ae51619e2930e5f3cc7b35834583b9a18766cd31f5cb57d8e8a2", "ca26fdff95f01e99c1abb98b90eb0847d7be81fbe0302aab2d1ad6eb61a22a4f"},
	{"d81d5895baa32013ee670b42df2af7dbe951743501d09f44f1817382e5e8aac8", "2fbdd7f089ccd347bb4b0bf214a4fc088078f89f5a577f0e8cbda7a8d1d356e6"},
	{"5551001a6075d8f993d471ac14960c3d7b8729ae5ae6e450608112021c915be4", "c50358d7c15371bb5b5561560698e437fd848aa8f57a5e1bc01fb60cbb329106"},
	{"a43de4d55bba0f90178bfa995b7827c919fa5e25a1d2ff49b2a68a4e77c4f42e", "3d848e2fbbcbe9a2d7ef2c110cf55d092108f2efea8391bd945233ba73b3e376"},
	{"22b3a902a99d897579382b2062047b05a8782b3647de381f5c985f5c2754b247", "202f28379aca6de03fc388e718995a505e976c078e1ca3a2a40af021abf961ea"},
	{"ddaf83403738e27c4fe5b2513f55dfd2b3703df80c5be5d9bfe8f0bafec716da", "a10eb6abf86d68a39d0987957ac25ba8445877d7c4d59197b8958eda5560f31f"},
	{"346cab16501a9a33a6d204915b49e15a60a3ad3d3ea0013dd3833a1ad30cfbba", "7ca455c21de705f79e027b0852a557f1805d53dd26efe05446b679957914a8d3"},
	{"96f42860a2c13a28083be7ca7ac8407ffb054f66db601dcfe0eefa2ddcf29743", "a56b86640c870d73fa55d13a7d03ae6ddf9868dff95df2d0867bec47a263b8d9"},
	{"5772e30f18399e249bab5af321f8b6adf0e5824f2f52e791a6d06bba093c84ba", "f13b94074e2fdac4a3562496d502ddbfadd55a5588a65fb4430a8b45afbc5974"},
	{"a4efbb4072f4065b2891083971935139c0b2bebf14f081b2c246343f974a93c8", "60c39577441b9c24a65aece59eba0c213854d226b309891f1405e96ab8ebaa8a"},
	{"74b458cfc908ab888e9029f74cd75379496088eff930c21ef2578f5c3e9ade8f", "41f798ff092d73fc626d744e77430f82afd5e3e323c0faf3145e9d4b73b9d1c6"},
	{"c1d62d390ad83d5fa101d89564396f526e8dc85772a4b95bb8dcdd6c6ebe5657", "4a5190234c3175afe2fa9320d9dba855474baafdfce5727bbe9dc47b43eb7397"},
	{"6270845210ffb38ce5c9a829deb8880b37244b78328bfeeeb555b7315aeec9d2", "62ea695f4ad502bb046cff0242012c589d17cc73b0991a5ab88552c9fbc84fbb"},
	{"86d43730c74e1a6b93bc56b63ce24f8e5184599859e3c7111d349e2f4a7148ab", "e35d2508e61f10a43c2b884d8396cf5c0fcfe93c034ce5627a0695626a2344d6"},
	{"e9f1880cf0550c0c28d9464073c0605767b7a531d4125f7a1ee0bb3565227bdc", "c6aaa538435fa4ab4d038bfafd2b6117e1243f41693cadb44f95a536f50be792"},
	{"750d23d9641d1055316c82642f69279b9d9b1ca06bb38c9d02c54dced2b73e3d", "60fd0967301894eafaa7aa79da8bc2e407c4d7a6fe836ccfd842b548661fb51b"},
	{"5ee2a208d67baf36f584f2f4a01db355a3ee8bcbc32881df26d1c00553708b0d", "5ee2a208d67baf36f584f2f4a01db355a3ee8bcbc32881df26d1c00553708b0d"},
}

// caseGraph compiles one digest case into a fresh graph.
func caseGraph(t *testing.T, c digestCase, opts Options) *graph.Graph {
	t.Helper()
	e, err := val.ParseExpr(c.src)
	if err != nil {
		t.Fatalf("parse %q: %v", c.src, err)
	}
	g := graph.New()
	var b *Builder
	if c.twoD {
		b = NewBuilder2(g, "i", 1, 4, "j", 1, 5, nil, opts)
		b.BindArray2("U", g.AddSource("U", value.Reals(make([]float64, 6*7))), 0, 5, 0, 6)
	} else {
		b = NewBuilder(g, "i", 2, 13, map[string]int64{"k": 3}, opts)
		b.BindArray("A", g.AddSource("A", value.Reals(make([]float64, 16))), 0, 15)
		b.BindArray("B", g.AddSource("B", value.Reals(make([]float64, 16))), 0, 15)
	}
	out, err := b.CompileStream(e)
	if err != nil {
		t.Fatalf("compile %q: %v", c.src, err)
	}
	g.Connect(out, g.AddSink("out"), 0)
	return g
}

func graphDigest(t *testing.T, g *graph.Graph) string {
	t.Helper()
	bs, err := g.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(bs)
	return hex.EncodeToString(sum[:])
}

// TestSelectionGraphDigests pins the exact graph each selection form
// compiles to.
func TestSelectionGraphDigests(t *testing.T) {
	if len(digestWant) != len(digestCases) {
		t.Fatalf("%d digests for %d cases", len(digestWant), len(digestCases))
	}
	for k, c := range digestCases {
		for m, lit := range []bool{false, true} {
			got := graphDigest(t, caseGraph(t, c, Options{LiteralControl: lit}))
			if got != digestWant[k][m] {
				t.Errorf("%q (literal control %v): digest %s, want %s", c.src, lit, got, digestWant[k][m])
			}
		}
	}
}
