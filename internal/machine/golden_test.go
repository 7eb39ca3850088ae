package machine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"staticpipe/internal/core"
	"staticpipe/internal/machine"
	"staticpipe/internal/progs"
	"staticpipe/internal/trace"
	"staticpipe/internal/value"
)

// machinePin pins one lane's view of a packet-machine run: cycles, packets
// by kind (result, ack, operation), array-memory packets, PE and FU busy
// counters, and SHA-256 digests of the JSON encoding of its outputs and
// arrivals and of its stall diagnostics.
type machinePin struct {
	cycles         int
	packets        [3]int
	am             int
	peBusy, fuBusy []int
	outSHA         string
	stallSHA       string
}

// machineConfigs are the machine shapes TestMachineGolden runs every
// testdata program on: each built-in assignment on the crossbar, by-stage
// on the butterfly, split butterfly fabrics (on the crossbar the two
// fabrics serve disjoint endpoints, so splitting changes nothing there), non-default unit counts and latencies,
// a 4-lane batch with rotated lane inputs, and a run cut by MaxCycles at
// half the round-robin run's clean length.
var machineConfigs = []struct {
	name string
	cfg  machine.Config
}{
	{"round-robin", machine.Config{PEs: 4, AMs: 2}},
	{"random", machine.Config{PEs: 4, AMs: 2, Assign: machine.Random, Seed: 7}},
	{"by-stage", machine.Config{PEs: 4, AMs: 2, Assign: machine.ByStage}},
	{"hot-spot", machine.Config{PEs: 4, AMs: 2, Assign: machine.HotSpot}},
	{"by-stage-butterfly", machine.Config{PEs: 8, AMs: 2, Assign: machine.ByStage, Network: machine.Butterfly}},
	{"split-butterfly", machine.Config{PEs: 4, AMs: 2, SplitNetworks: true, Network: machine.Butterfly}},
	{"units", machine.Config{PEs: 6, FUs: 3, AMs: 3, MulLatency: 7, AddLatency: 3, NetDelay: 4, Assign: machine.ByStage}},
	{"batch4", machine.Config{PEs: 4, AMs: 2, Batch: 4}},
	{"cut", machine.Config{PEs: 4, AMs: 2}},
}

// machineGolden holds one row per (program, config). traced rows also pin
// the Chrome trace (stall events included) and the raw event stream, every
// field of every event; the batched row's trace is lane 0's. The values
// were recorded from the machine that walked FIFO-expanded graph nodes,
// before it ran from the lowered instruction table, and must not be
// re-pinned to absorb a simulator change.
var machineGolden = []struct {
	prog, config        string
	lanes               []machinePin
	traceSHA, eventsSHA string
}{
	{"example1", "round-robin", []machinePin{{239, [3]int{356, 356, 76}, 168, []int{80, 72, 72, 66}, []int{38, 38}, "226c89843ca043a83f1850ae9699c4df1fea1b9772461e13fb9ed8a6c5f596de", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"example1", "random", []machinePin{{213, [3]int{356, 356, 76}, 168, []int{148, 80, 16, 46}, []int{38, 38}, "50d3dd678a83c0d0198a116d1b56138204bce2a4d87fbf23cd46b8fec0f49094", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"example1", "by-stage", []machinePin{{220, [3]int{356, 356, 76}, 168, []int{98, 90, 94, 8}, []int{38, 38}, "06587a0626129cda9937d0adef0951d15446e8db907c1b2009395e9767aea9c5", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"example1", "hot-spot", []machinePin{{322, [3]int{356, 356, 76}, 168, []int{290, 0, 0, 0}, []int{38, 38}, "f56ca6b0e64ff49249eb1cdf51c8627e780bfb29f5470ea0a09d8c874db5e0f6", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"example1", "by-stage-butterfly", []machinePin{{319, [3]int{356, 356, 76}, 168, []int{56, 54, 52, 54, 54, 18, 2, 0}, []int{38, 38}, "5cc949f3e0f9d23e25d18a2a0e4f3b3cd191e64fa590a3c9e806715a2cd05518", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"example1", "split-butterfly", []machinePin{{302, [3]int{356, 356, 76}, 168, []int{80, 72, 72, 66}, []int{38, 38}, "1e303cd9d119b9d40631dea4d85be92a415dea44fc30b0f235a441873c29c1fe", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"example1", "units", []machinePin{{342, [3]int{356, 356, 76}, 168, []int{70, 66, 66, 68, 20, 0}, []int{26, 25, 25}, "73f6f4ac8ac104a4c5a945f0f0a6084ec603a53ee9bb7fd303febd84b9604c8d", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"example1", "batch4", []machinePin{{239, [3]int{356, 356, 76}, 168, []int{80, 72, 72, 66}, []int{38, 38}, "226c89843ca043a83f1850ae9699c4df1fea1b9772461e13fb9ed8a6c5f596de", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		{239, [3]int{356, 356, 76}, 168, []int{80, 72, 72, 66}, []int{38, 38}, "9ccf8356d67763c344f6ae195a12bf0786c42235a6e1afdc9edbd0b694d80118", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		{239, [3]int{356, 356, 76}, 168, []int{80, 72, 72, 66}, []int{38, 38}, "c31b48f748e77f40152ca6d715ffcbb43e0d822f1194e4215e914d0d3112c5a8", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		{239, [3]int{356, 356, 76}, 168, []int{80, 72, 72, 66}, []int{38, 38}, "77de51a485c1de6f9aef0bdc1a38a4f087b5b3fdccab500f18ab118214e79251", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"example1", "cut", []machinePin{{119, [3]int{227, 208, 41}, 106, []int{48, 42, 50, 44}, []int{21, 20}, "937bebd6150094d4d8d6a9799f94f98488cb7663498d7c557a44e03b7e0e5759", "375a6f1bf8b5cccf6deb1c093a4a39d247169f12bbe92b871d301fd90062850c"}},
		"0d36885b2edc8c705fed06d775225b4486a22933654fe1b8e8303aaa65f03c89", "17b8d7136c3f971cad2969c75c0ae88492ac8dc84274f73198a84c31757605f5"},
	{"fig3", "round-robin", []machinePin{{882, [3]int{1636, 1636, 289}, 362, []int{347, 351, 352, 346}, []int{145, 144}, "889325092c5bf4b9945ce92404f6f7857d28c880c9ad2e936bde5a64cf2a448b", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"fig3", "random", []machinePin{{735, [3]int{1636, 1636, 289}, 362, []int{517, 374, 252, 253}, []int{145, 144}, "e946c7269ede5ba0d0c6bd6453205a9ad4f88e1fd563eb2899fe6ca67e7ba1f6", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"fig3", "by-stage", []machinePin{{550, [3]int{1636, 1636, 289}, 362, []int{408, 396, 291, 301}, []int{145, 144}, "a9bf371821c473d910605bf32d478b8bef0ecde3e9c1952ff9ef3644f27d12ae", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"fig3", "hot-spot", []machinePin{{1407, [3]int{1636, 1636, 289}, 362, []int{1396, 0, 0, 0}, []int{145, 144}, "d34990a932b5f69052c78bde5f183ea303c6a1b27b6c687f3b0e68d7616154a5", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"fig3", "by-stage-butterfly", []machinePin{{669, [3]int{1636, 1636, 289}, 362, []int{206, 202, 204, 192, 143, 148, 108, 193}, []int{145, 144}, "95dbb9d3dc42e6b0f2a81183610143baf917c657e53de87650dfaf1224b86b10", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"fig3", "split-butterfly", []machinePin{{945, [3]int{1636, 1636, 289}, 362, []int{347, 351, 352, 346}, []int{145, 144}, "976740476f4a97e1957af96de1ff05cde479e9cb37fb2c007720e77f9d2ea38a", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"fig3", "units", []machinePin{{757, [3]int{1636, 1636, 289}, 362, []int{282, 280, 266, 173, 176, 219}, []int{97, 96, 96}, "e7ee363bdde486573d3249a14b1c7d2ccd22d34ff23ecbaa7ccd2a54963f23e7", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"fig3", "batch4", []machinePin{{882, [3]int{1636, 1636, 289}, 362, []int{347, 351, 352, 346}, []int{145, 144}, "889325092c5bf4b9945ce92404f6f7857d28c880c9ad2e936bde5a64cf2a448b", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		{882, [3]int{1636, 1636, 289}, 362, []int{347, 351, 352, 346}, []int{145, 144}, "0d74fbf86058b8b396f44c175cda8e914f4ead1a01bffb7ddbf5463b61d2179d", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		{882, [3]int{1636, 1636, 289}, 362, []int{347, 351, 352, 346}, []int{145, 144}, "c48562b1fdfd0d50b59e9eb1623e229560ca55a8370bd723e3a999255c549f25", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		{882, [3]int{1636, 1636, 289}, 362, []int{347, 351, 352, 346}, []int{145, 144}, "55f3203590c0b30368eb869bd5a9b59765e0200c7fc9664623384d046b6b4e6d", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"db5cde39dccecd6fb217b1b10299ff865d67c374d18d410c7ce54b6d3bf3252b", "dcce77d6d94a045282a9fe0a842452d7c2ea571533a9171623eb1484b0d6c315"},
	{"fig3", "cut", []machinePin{{441, [3]int{868, 836, 148}, 219, []int{187, 184, 188, 176}, []int{73, 73}, "d69649fcdbf2dfc569d9eb641f252a27a8be759c4210b2e17cf9c9e2e2974904", "501a1ccc7fbbab39bd0208c2c01d55c9702a694ca576746bc4a175765b687d3d"}},
		"", ""},
	{"laplace2d", "round-robin", []machinePin{{4300, [3]int{8644, 8644, 256}, 1200, []int{2176, 2104, 2068, 2004}, []int{128, 128}, "272072057fcbbaf60d414b95aa5e87755301810ec2e5c329114e455f79f19b66", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"laplace2d", "random", []machinePin{{3498, [3]int{8644, 8644, 256}, 1200, []int{2240, 2132, 1804, 2176}, []int{128, 128}, "1dcde05500e9e0aa1ca07bcb7d9418aba12c5f2f72274fd3fdea732758103c52", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"laplace2d", "by-stage", []machinePin{{3036, [3]int{8644, 8644, 256}, 1200, []int{2956, 2164, 1984, 1248}, []int{128, 128}, "5d97d8ce57dabd5884705f7f8ef2fa70a816f0a731a5a73e73225bd506f73817", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"laplace2d", "hot-spot", []machinePin{{8371, [3]int{8644, 8644, 256}, 1200, []int{8352, 0, 0, 0}, []int{128, 128}, "5f15e537369740a108c0b9d3ed615df335f9b41c7403abf50427b5fcd2e0b9e9", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"laplace2d", "by-stage-butterfly", []machinePin{{1837, [3]int{8644, 8644, 256}, 1200, []int{1456, 1600, 1132, 1060, 1024, 1024, 660, 396}, []int{128, 128}, "b68a4d1788e461d6db1cb3dedbae4260414e6d0c26fa258e7ac13df1e6f27523", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"laplace2d", "split-butterfly", []machinePin{{4362, [3]int{8644, 8644, 256}, 1200, []int{2176, 2104, 2068, 2004}, []int{128, 128}, "9ab1c839db7913c6d94b6b72a551783ab9aab3f3d6e2701d6d72bc69213a9640", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"f6eedcd24610d5933493574b011a0e086e4d772b2d4c3d1f307b421b3d1c9f36", "2a9bfabe8e68038394f9b1ea3de0f352b0354cac9ac5cca1f3c67de2876ff99b"},
	{"laplace2d", "units", []machinePin{{2193, [3]int{8644, 8644, 256}, 1200, []int{1956, 1848, 1380, 1344, 1176, 648}, []int{86, 85, 85}, "214ffde2158a1782b3da7d165bd14f8f1ea8ca4ea7bbd72e0f4ce9e587731211", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"laplace2d", "batch4", []machinePin{{4300, [3]int{8644, 8644, 256}, 1200, []int{2176, 2104, 2068, 2004}, []int{128, 128}, "272072057fcbbaf60d414b95aa5e87755301810ec2e5c329114e455f79f19b66", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		{4300, [3]int{8644, 8644, 256}, 1200, []int{2176, 2104, 2068, 2004}, []int{128, 128}, "22571d7f0bb7dafe3bfbb6586100e0352c75379aea76180938664d15632e1c5e", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		{4300, [3]int{8644, 8644, 256}, 1200, []int{2176, 2104, 2068, 2004}, []int{128, 128}, "679ebf1fc8ac55c008ae9ffbfdfa40e1e1ed73888f9c00169c838b9209c73b1f", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		{4300, [3]int{8644, 8644, 256}, 1200, []int{2176, 2104, 2068, 2004}, []int{128, 128}, "4e15d7e4e4112b531760485df628ae89b0601e610c2210bc1830843b0779e9f6", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"laplace2d", "cut", []machinePin{{2150, [3]int{4439, 4390, 105}, 632, []int{1127, 1076, 1046, 1024}, []int{53, 52}, "da3ce3c3975e24ea3e6cd5ecba727c1447bff2b984afcfd5149e03366d6417bf", "938b0a5a835b7a0f70e7c8647e7c9b4e1f6f06be09977b3e9180aa008e823246"}},
		"", ""},
	{"recurrence", "round-robin", []machinePin{{136, [3]int{216, 216, 33}, 38, []int{48, 49, 46, 41}, []int{17, 16}, "c44e6d5e90428e02aec6221199649c6abbf3a9d19834693efc6a26a1d9c7b13c", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"recurrence", "random", []machinePin{{125, [3]int{216, 216, 33}, 38, []int{74, 51, 31, 28}, []int{17, 16}, "3ccef35c530405186e8f1375e006afae5f7a1612ee7768f03e5790c6a580ae88", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"recurrence", "by-stage", []machinePin{{110, [3]int{216, 216, 33}, 38, []int{54, 53, 35, 42}, []int{17, 16}, "ce8427dafa69c14d8c9fd6e7d727aab8f83419065b064413b7d0c5780038a786", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"recurrence", "hot-spot", []machinePin{{198, [3]int{216, 216, 33}, 38, []int{184, 0, 0, 0}, []int{17, 16}, "43b0d76aec0293a759e0fe8f27879a599e924c1a83b39b5e9cb138548787ff78", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"b03068f9db152161c136dee1d3c7e79e11beb400d1aafead860495bd60bdaf63", "504298f767006c9ef157e3300cdb2e921bc6745ad26ae1cac5090dcb82e70b5c"},
	{"recurrence", "by-stage-butterfly", []machinePin{{201, [3]int{216, 216, 33}, 38, []int{30, 30, 30, 27, 13, 29, 25, 0}, []int{17, 16}, "c4d8636a788a87ed997d1bac81e8ac35d222723c99aa78361c0ed367b5b53013", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"recurrence", "split-butterfly", []machinePin{{179, [3]int{216, 216, 33}, 38, []int{48, 49, 46, 41}, []int{17, 16}, "c9c914429e5c2b723b11a5b3900e2da379a5ad2888142419b5dd466d0753fa7b", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"recurrence", "units", []machinePin{{187, [3]int{216, 216, 33}, 38, []int{36, 36, 35, 16, 36, 25}, []int{11, 11, 11}, "a8fc27bf198693cd8ac4cbf75e2e82f49eecb560e8af1fd121960ac0df40c9cf", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"recurrence", "batch4", []machinePin{{136, [3]int{216, 216, 33}, 38, []int{48, 49, 46, 41}, []int{17, 16}, "c44e6d5e90428e02aec6221199649c6abbf3a9d19834693efc6a26a1d9c7b13c", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		{136, [3]int{216, 216, 33}, 38, []int{48, 49, 46, 41}, []int{17, 16}, "f07ab022a9cf9e1d996ec705cf2b9e561a01419023b0ef442775c185e80c36f6", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		{136, [3]int{216, 216, 33}, 38, []int{48, 49, 46, 41}, []int{17, 16}, "c6f3671bc7bdf7168d4a2897d5c8c807ee978096f7d7916cd39b7021562a98a2", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		{136, [3]int{216, 216, 33}, 38, []int{48, 49, 46, 41}, []int{17, 16}, "e0f8603e56fc72671d1b8ee905515a72625b61e82f706f81680575ff022ca94d", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"recurrence", "cut", []machinePin{{68, [3]int{143, 126, 17}, 27, []int{33, 30, 28, 27}, []int{8, 8}, "ec53f9fffe1bb919f8b86a7e41b62c401dae2fcef4ac531892700c89c26281e5", "10514d7a0491a7be786739973e241d3ad9342660911b818526b0315357b25409"}},
		"", ""},
	{"weather", "round-robin", []machinePin{{2515, [3]int{5048, 5048, 597}, 1088, []int{1054, 1136, 1130, 1051}, []int{299, 298}, "c05461414e2aa56bd18f3571ff3404e133e099eb5c19018c0a0dc24f5d5f2c60", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"weather", "random", []machinePin{{2076, [3]int{5048, 5048, 597}, 1088, []int{1058, 1172, 891, 1250}, []int{299, 298}, "c16ce37cc8a4d4a108f06aefc99b532f0c94262d78352beae774518957b6975c", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"78bd2235bff1500b784b6e99b6598ef35bfa25e3a741b8f38bd48ffee88711ee", "1026ad43015e39cd7dc104edfc6273f159b4c2a10d086775241a8242d7fc5bc6"},
	{"weather", "by-stage", []machinePin{{1316, [3]int{5048, 5048, 597}, 1088, []int{1196, 971, 1046, 1158}, []int{299, 298}, "1b39a18c5bb5d5d046199b1091f98f310d63c9c1636eeb0511cdceee3f042797", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"weather", "hot-spot", []machinePin{{4390, [3]int{5048, 5048, 597}, 1088, []int{4371, 0, 0, 0}, []int{299, 298}, "2dd2c6deffe14ed73a8519ed4e83af894817d2e9569e894339ee369bcd9e3178", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"weather", "by-stage-butterfly", []machinePin{{1255, [3]int{5048, 5048, 597}, 1088, []int{620, 618, 526, 485, 604, 480, 598, 440}, []int{299, 298}, "b5b022bd84552842b83d3ec6ecc92e6bde70df8f7bfde3006ca335c2c9d64a4b", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"weather", "split-butterfly", []machinePin{{2645, [3]int{5048, 5048, 597}, 1088, []int{1054, 1136, 1130, 1051}, []int{299, 298}, "ff63c7c901f34bede18b262b0b12b8ef6d1a4f932f42519c12dc2ac5a8167cf2", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"weather", "units", []machinePin{{1245, [3]int{5048, 5048, 597}, 1088, []int{828, 736, 685, 804, 678, 640}, []int{199, 199, 199}, "ae36a94fa90a37dbcc7897e378a4ab0407e14ac814c7ac051a8f105d136d0a3b", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"weather", "batch4", []machinePin{{2515, [3]int{5048, 5048, 597}, 1088, []int{1054, 1136, 1130, 1051}, []int{299, 298}, "c05461414e2aa56bd18f3571ff3404e133e099eb5c19018c0a0dc24f5d5f2c60", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		{2515, [3]int{5048, 5048, 597}, 1088, []int{1054, 1136, 1130, 1051}, []int{299, 298}, "8b651a48c437dfca04cc6212e0756ec50afcb27028f8aa53e70a0a5c18023374", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		{2514, [3]int{5049, 5049, 597}, 1088, []int{1055, 1134, 1130, 1053}, []int{299, 298}, "6f39cc61d19288fe536b3511efbf4922811d54c72fccfec0cb308823b0cab0d8", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		{2514, [3]int{5049, 5049, 597}, 1088, []int{1055, 1134, 1130, 1053}, []int{299, 298}, "8c4934f8c3ecc1a8e24ee5582a4fafa339d443a00e150fd804c7c6c0e10a551a", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"", ""},
	{"weather", "cut", []machinePin{{1257, [3]int{2723, 2662, 293}, 625, []int{566, 621, 590, 558}, []int{147, 146}, "36945d588a7674921d2ad2a721b5af50e3b879e833f31769b344131046a31b87", "26ae575637864be97951132701b0cd636e85cef9bd5d288bf6700900663cb377"}},
		"", ""},
}

// TestMachineGolden runs every testdata program, with the ramp inputs
// dfsim binds, under every machineConfigs shape and compares each lane's
// view, and the traced rows' digests, with machineGolden.
func TestMachineGolden(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.val"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("testdata programs: %v (found %d)", err, len(paths))
	}
	traced := map[string]string{
		"example1": "cut", "fig3": "batch4", "laplace2d": "split-butterfly", "recurrence": "hot-spot", "weather": "random",
	}
	want := map[string]int{}
	for i, g := range machineGolden {
		want[g.prog+"/"+g.config] = i
	}
	var missing []string
	rows := 0
	for _, path := range paths {
		prog := strings.TrimSuffix(filepath.Base(path), ".val")
		src, err := os.ReadFile(path)
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
		ramp := map[string][]value.Value{}
		for _, in := range art.Checked.Inputs {
			ramp[in.Name] = progs.Synth("ramp", in.Len())
		}
		base, err := art.Compiled.BindInputs(ramp)
		if err != nil {
			t.Fatal(err)
		}
		lanes := make([]map[string][]value.Value, 4)
		for l := 1; l < len(lanes); l++ {
			lanes[l] = map[string][]value.Value{}
			for name, vs := range base {
				lanes[l][name] = rotate(vs, l)
			}
		}
		rr, err := mp.Run(machine.Config{PEs: 4, AMs: 2, Inputs: base})
		if err != nil {
			t.Fatal(err)
		}
		clean := rr.Cycles
		for _, mc := range machineConfigs {
			rows++
			name := prog + "/" + mc.name
			t.Run(name, func(t *testing.T) {
				cfg := mc.cfg
				cfg.Inputs = base
				switch mc.name {
				case "batch4":
					cfg.LaneInputs = lanes
				case "cut":
					cfg.MaxCycles = clean / 2
				}
				var chromeHash, eventHash hash.Hash
				var chrome *trace.Chrome
				if traced[prog] == mc.name {
					chromeHash, eventHash = sha256.New(), sha256.New()
					chrome = trace.NewChrome(chromeHash)
					chrome.Stalls = true
					cfg.Tracer = tee{chrome, eventHash}
				}
				res, err := mp.Run(cfg)
				if err != nil && mc.name != "cut" {
					t.Fatal(err)
				}
				var got []machinePin
				if cfg.Batch > 1 {
					for l := range res.Lanes {
						got = append(got, pinLane(t, &res.Lanes[l]))
					}
				} else {
					got = append(got, pinRun(t, res))
				}
				var traceSHA, eventsSHA string
				if chrome != nil {
					if err := chrome.Close(); err != nil {
						t.Fatal(err)
					}
					traceSHA, eventsSHA = sum(chromeHash), sum(eventHash)
				}
				row := goldenRow(prog, mc.name, got, traceSHA, eventsSHA)
				i, ok := want[name]
				if !ok {
					missing = append(missing, row)
					t.Errorf("no golden row")
					return
				}
				g := machineGolden[i]
				if !reflect.DeepEqual(got, g.lanes) {
					for l := range got {
						if l >= len(g.lanes) || !reflect.DeepEqual(got[l], g.lanes[l]) {
							t.Errorf("lane %d %+v, want %+v", l, got[l], g.lanes[min(l, len(g.lanes)-1)])
						}
					}
				}
				if traceSHA != g.traceSHA || eventsSHA != g.eventsSHA {
					t.Errorf("trace digests %s / %s, want %s / %s", traceSHA, eventsSHA, g.traceSHA, g.eventsSHA)
				}
				if t.Failed() {
					t.Logf("computed:\n%s", row)
				}
			})
		}
	}
	if len(missing) > 0 {
		t.Logf("missing rows:\n%s", strings.Join(missing, "\n"))
	}
	if rows != len(machineGolden) {
		t.Errorf("%d golden rows for %d runs", len(machineGolden), rows)
	}
}

// tee forwards a run's events to a Chrome writer and writes every field of
// each event to h, so the digest also pins fields the Chrome export omits
// (a delivery's operand port, for one).
type tee struct {
	chrome *trace.Chrome
	h      hash.Hash
}

func (t tee) Start(m trace.Meta) { t.chrome.Start(m) }
func (t tee) Emit(e trace.Event) {
	t.chrome.Emit(e)
	fmt.Fprintf(t.h, "%+v\n", e)
}

// rotate gives lane l its own input: the base stream rotated by l.
func rotate(vs []value.Value, l int) []value.Value {
	if len(vs) == 0 {
		return vs
	}
	l %= len(vs)
	return append(append([]value.Value(nil), vs[l:]...), vs[:l]...)
}

func pinRun(t *testing.T, r *machine.Result) machinePin {
	return pinLane(t, &machine.LaneResult{
		Cycles: r.Cycles, Outputs: r.Outputs, Arrivals: r.Arrivals, Packets: r.Packets,
		AMPackets: r.AMPackets, PEBusy: r.PEBusy, FUBusy: r.FUBusy, Stalled: r.Stalled,
	})
}

func pinLane(t *testing.T, r *machine.LaneResult) machinePin {
	t.Helper()
	return machinePin{
		cycles:  r.Cycles,
		packets: [3]int{r.Packets["result"], r.Packets["ack"], r.Packets["operation"]},
		am:      r.AMPackets,
		peBusy:  r.PEBusy, fuBusy: r.FUBusy,
		outSHA:   jsonSHA(t, []any{r.Outputs, arrivalRecords(r.Outputs, r.Arrivals)}),
		stallSHA: jsonSHA(t, r.Stalled),
	}
}

// arrivalRecords rebuilds the per-arrival records the digests were
// recorded over: each sink's values paired with their arrival cycles, nil
// for a sink that received nothing.
func arrivalRecords(outs map[string][]value.Value, cycles map[string][]int) map[string][]arrival {
	recs := make(map[string][]arrival, len(cycles))
	for label, cs := range cycles {
		var rs []arrival
		if cs != nil {
			rs = make([]arrival, len(cs))
			for i, c := range cs {
				rs[i] = arrival{Cycle: c, Val: outs[label][i]}
			}
		}
		recs[label] = rs
	}
	return recs
}

type arrival struct {
	Cycle int
	Val   value.Value
}

func jsonSHA(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// goldenRow renders a computed row in machineGolden's literal syntax.
func goldenRow(prog, config string, lanes []machinePin, traceSHA, eventsSHA string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "{%q, %q, []machinePin{", prog, config)
	for l, p := range lanes {
		if l > 0 {
			b.WriteString(",\n\t\t")
		}
		fmt.Fprintf(&b, "{%d, [3]int{%d, %d, %d}, %d, %#v, %#v, %q, %q}",
			p.cycles, p.packets[0], p.packets[1], p.packets[2], p.am, p.peBusy, p.fuBusy, p.outSHA, p.stallSHA)
	}
	fmt.Fprintf(&b, "},\n\t%q, %q},", traceSHA, eventsSHA)
	return b.String()
}
