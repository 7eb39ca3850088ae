package exec_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"staticpipe/internal/core"
	"staticpipe/internal/exec"
	"staticpipe/internal/progs"
	"staticpipe/internal/trace"
	"staticpipe/internal/value"
)

// goldenRun pins one lane's view of an exec run: cycle count, total
// firings, whether it drained, and SHA-256 digests of the JSON encodings
// of its outputs, its arrivals and its stall diagnostics.
type goldenRun struct {
	cycles, firings int
	clean           bool
	outSHA, arrSHA  string
	stallSHA        string
}

// execGolden pins the exec core on every testdata program (with the ramp
// inputs dfsim binds) and on the internal/progs paper programs at 1024
// elements, each run once scalar and once batched at B = 4 with distinct
// inputs per lane. The "cut" row stops weather early, so its stall
// diagnostics name stranded tokens and unsent stream values. traceSHA is
// the digest of the scalar run's Chrome trace with stall events included;
// the batched run's lane-0 trace must match it byte for byte. The values
// were recorded from the engine before its instruction table, wake rule
// and 16-byte tokens, and must not be re-pinned to absorb a kernel change.
var execGolden = []struct {
	name      string
	maxCycles int
	scalar    goldenRun
	lanes     [4]goldenRun
	traceSHA  string
}{
	{"example1", 0, goldenRun{36, 332, true, "42c9a1077c1446c9218b32f91c4bdc9213e52558cf87cd9df4dd6c0dafbe7b44", "88002777daa5bf79a088f62bb954ee0d8c150292c1e53734ece79a4ef3416c79", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		[4]goldenRun{{36, 332, true, "42c9a1077c1446c9218b32f91c4bdc9213e52558cf87cd9df4dd6c0dafbe7b44", "88002777daa5bf79a088f62bb954ee0d8c150292c1e53734ece79a4ef3416c79", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{36, 332, true, "3da650731454f17e1baece8b598fb42f28a5056f34b200bf4821a57a9503baf9", "217e6df31dd434f61cbfa73fffc385816ce2cc778a2004ea166366f2acd9ef30", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{36, 332, true, "3490aecccac4fd2c64a2b42215c3dc791f0be9f1680a12b5abf9bcc925c170ef", "8d16c0f6646013fd6f1b657cf99b982dc4e52eb98a7a6ee14e05398b20bb6457", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{36, 332, true, "837e5865ce043d72d915eef9703ae5db1ae3a2522b09d3cc0f97b3df6bd50aa7", "1868a57f5b0dea469d2de53d11b8333966a2a8f2301b365f711a37a7f386268a", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"d9c6dcd73237999a48d80ebe731d30efbfc2439527e0dc0092a628140045f939"},
	{"fig3", 0, goldenRun{67, 1473, true, "f72b859f7673d65b2d3a86501c6b088bbd456ea666c0372c8494f9e4bc9afc10", "f615b678984d496989b89d755aa500c06cbba55fafc6019f3bdc96a8057fe811", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		[4]goldenRun{{67, 1473, true, "f72b859f7673d65b2d3a86501c6b088bbd456ea666c0372c8494f9e4bc9afc10", "f615b678984d496989b89d755aa500c06cbba55fafc6019f3bdc96a8057fe811", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{67, 1473, true, "ec0b0c3b530ef951abbf1ce3ce550f6cbedad3bd0af59ea63d525961e7bb0ed7", "958f7914a8ef11396e25584439f39763d0b292f04fe84027f75a7bd87a47730c", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{67, 1473, true, "dd97a10d4faabaebcfc31d297a60f3008d0e0f4f31c32f9adc0082d5eac35ee6", "0b478a7764902cefcc6782f8b4bd92517e728bb4b6908e0c41c12bb8c1ec1e31", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{67, 1473, true, "dfb7b9040b35260477359ffa005781537f87cc721b102aea7eaccc650e9b2e6c", "6eed65f3d3df976265f9f2bc07f4e9b385714de66b6cb581ff5a6e333635c5f3", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"9e7f0f5775522fac278755076c0bbf2456b55a5a85c62468dc057a7310ffe1ea"},
	{"laplace2d", 0, goldenRun{226, 8552, true, "0e4bc9c60cb7163b85a326e5ee9425ec92508de0582a4716904a399ccc2b7eec", "6187b4f52fe558cec580670f8934f6eb67cd1c4a65d3cab74440cf28303f5a92", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		[4]goldenRun{{226, 8552, true, "0e4bc9c60cb7163b85a326e5ee9425ec92508de0582a4716904a399ccc2b7eec", "6187b4f52fe558cec580670f8934f6eb67cd1c4a65d3cab74440cf28303f5a92", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{226, 8552, true, "f49129e88ca00c5e0d6697844dde8bcf2a88451d0e5b1b71199c3f1dc0d58b9b", "fa8e222f16d1e9a65cc2ba6845376f327befe628a0b77812273ee6a112fb3c1c", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{226, 8552, true, "1ea09b911f48ea3c41ce8f0a2f01a8249b0fd2a582d356f44c65ee7cb3832511", "b1e2f52f7ab71e960a5100fde8f857ddb0b07a8102c835e3cf3279940c9d7319", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{226, 8552, true, "adca27d5aefdf3cd685b32b7fd16bda1b8336936a5e3c9a5ef5f542a4458f9ed", "e2664eaadc2aa77586b940724196ed70cb3d398a9893e14c2974dd2c528aabe0", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"918c35b1872bfbee9f33ca8d4ca43eaaa67e6517fa333771725ae1cd27417fe5"},
	{"recurrence", 0, goldenRun{21, 203, true, "305cd7e43471216f1638024ed0c45da5bacc65b1ac4bc29445783b86746359a2", "3e896228d406b400f369859dcd28c803f95fc4343b74e8330d06aa0bd1774169", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		[4]goldenRun{{21, 203, true, "305cd7e43471216f1638024ed0c45da5bacc65b1ac4bc29445783b86746359a2", "3e896228d406b400f369859dcd28c803f95fc4343b74e8330d06aa0bd1774169", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{21, 203, true, "139d3b2126d113d181fcd914776d88ec3749a53d170c8a0e5c6fd414ea307813", "8bdb683f4e92307da683be01a6327dfd611ae5b938ae9539c518cd81b72a8852", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{21, 203, true, "9c0fe520d5fea3355ecbb575f2f79f7a0c76b95af450d6712cd08c19d5fcb984", "7c24cec3c57def5d8866ab3bb7545387796755ac79aa4b0c8242beb266a31961", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{21, 203, true, "390fd239dde377ea7001bb9387185131c8b3f7f890c21474ab74397409054fe1", "d987da50a27fbed067586f832a1922ef53593cf3ebe65e6ee09949ce334a798b", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"953771b84b234f3c6652238aea541525e1eefa2742e9680fc3797247e9f0b3a1"},
	{"weather", 0, goldenRun{103, 4495, true, "6e893323351f927576ef3fec11706350f995a8bcbf13b8ce28015b74d1392346", "31f052c7aec30a4c86d70c804b9d7906a7f37f00c1d6c1c06aaae7ee3a6751e8", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		[4]goldenRun{{103, 4495, true, "6e893323351f927576ef3fec11706350f995a8bcbf13b8ce28015b74d1392346", "31f052c7aec30a4c86d70c804b9d7906a7f37f00c1d6c1c06aaae7ee3a6751e8", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{103, 4495, true, "1d392863045e9c4913f770e5910cee22b0131e1f530cfe1867779f85616ae024", "7977aae9d0cd02ec8794d17646f8008b52a3464d14f23fec782bb26deaa1d0e1", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{103, 4496, true, "1a6c2355c2257422caa13e290076b1a272062276059b9d37c20764cae94ae7f5", "328a735148aaf0a909772819e0ec29a679b25f55361ea1e7cb533d8fbf7549cd", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{103, 4496, true, "a189783fdb46f4c7b40a49c6af7697b31dda3933df5edbe57e5aa34fd6dbfc3c", "f0d4d674fc7a1821f94e408bf9fb96ec5a1b6fcacd5dbb27b38e0a5448faf6c3", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"5d9170712249a099039983131714815932ff7ea5dcc0d5554bed723f7d24b2e1"},
	{"fig2-1024", 0, goldenRun{2052, 11264, true, "e4f82379378864d1d08d01bea0a74be07fa01a751d737c5d686fb1e974c000ab", "4bf5fa1406d27d043e6da94543a42fb0ba41dbe5652e5c47d9e2714a23a72641", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		[4]goldenRun{{2052, 11264, true, "e4f82379378864d1d08d01bea0a74be07fa01a751d737c5d686fb1e974c000ab", "4bf5fa1406d27d043e6da94543a42fb0ba41dbe5652e5c47d9e2714a23a72641", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{2052, 11264, true, "133b89577842b5a4cb89411b3fd2a58760b6d8e59d380c9fc06f2ba403f4abc6", "0f12634d945a04b5d2b9405084b9219b50cbe4d24440dd4db715a48ed19f3ef8", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{2052, 11264, true, "ce2ced12132f0ca976ac9ad3d15d7d95c24878d4402d8002e9d54294331e82ac", "5099e5a2beedcb5fbc556a2aefd4607826deded3a5e7eb486260afc5c0400a41", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{2052, 11264, true, "066e762dcecba82c61dfc68e9bcf6c74b9ab7af69561545d07fa425675937aab", "623fbadbf792ec3e65c388a1fd145a3e6a7a36841281b8a0b07904ea0aa4da2a", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"a44ce798531d40d2a292cc02b68af9396c3c13212235b97dafcbbf54278f0e8e"},
	{"fig4-1024", 0, goldenRun{2055, 15374, true, "357dbad06a1bb6b16f9cc554d1b8e2d5d8cc4eb02d04bae49dd0ab1e03234a3d", "f3ff71b0102e48b167b09dcb370eb32aa0d3e638a044fc7f47cd653446bddaa8", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		[4]goldenRun{{2055, 15374, true, "357dbad06a1bb6b16f9cc554d1b8e2d5d8cc4eb02d04bae49dd0ab1e03234a3d", "f3ff71b0102e48b167b09dcb370eb32aa0d3e638a044fc7f47cd653446bddaa8", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{2055, 15374, true, "a8749246f777729ad3e07f78becba1a91652b56b90f236e054af2f2a73aa73cc", "0b77d13e06a14755b7708ee6adfed7b441c3bf91a7f3a8f0cc27f00283b79543", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{2055, 15374, true, "70d971e2ff37fbc33f061777933965addbf00148b6b6984d6350e8895a58158a", "2e349ceae09ca1b9f3e97eb328f3c2469d585431a81e6ddac4bc880809486e3d", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{2055, 15374, true, "02f006d5c0c7c19313512fe55cbf1145b3dc816c670d3d88ec43bb92c40814b2", "0f16bf734a69601591891602f425e68ab151116e26992d9ae3af5ee0d868a834", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"a4a4ddd3b9447f8d3f0d1a0940bd4c188f61132849f5394cbf3a07beb0712997"},
	{"fig5-1024", 0, goldenRun{2055, 27648, true, "bc64011790d11bea9e29251d4980877f7b67d194092c16fceed400c68db86b0e", "7c1e5fd8564ba3c17fc07f0ca22184b681f93fc25ed492850411735932557634", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		[4]goldenRun{{2055, 27648, true, "bc64011790d11bea9e29251d4980877f7b67d194092c16fceed400c68db86b0e", "7c1e5fd8564ba3c17fc07f0ca22184b681f93fc25ed492850411735932557634", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{2055, 27648, true, "ff8f7afc9283e091d47309530ac2b5fbb5feb890b1584697474db6178c5f14a4", "7c94b80ca95822eff9fd11015f8e4c06e20f53b424c6e5c33a6b2bbd9fc6d08c", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{2055, 27648, true, "c3c1b774132ad03b5336e9625dc57dc57e1eab479d46eaa0ecbdfee0882eefd7", "aa4f17b78c8d7af3bc25fa30a357fb5bd48b3983c1c8ccf6f50e0cc42f3ae761", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{2055, 27648, true, "6da72ef621bd56cbc363f1569feb956db79094c2971d7b809ccc841b622f4bc2", "4df964820f47ffb28ccd2ea4947ed12ce589e7c658f9b9c65cf6d25ea9d0cd83", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"eeba2bac533ebbeedf9c354f7a895847b70630a25d2a7f26aab44bdc96dd7edc"},
	{"example1-1024", 0, goldenRun{2060, 24620, true, "99262a14c4984c7f3ee564e5a835bffde15bc2740538f9dd94f8e01bd7e8bb92", "e394d68c55a1c2b9118f50647a777c5099a81540b255f435124a32be8484817d", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		[4]goldenRun{{2060, 24620, true, "99262a14c4984c7f3ee564e5a835bffde15bc2740538f9dd94f8e01bd7e8bb92", "e394d68c55a1c2b9118f50647a777c5099a81540b255f435124a32be8484817d", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{2060, 24620, true, "121a6d711ae14a4d10948b3d9b537a7c579bbf3632892516187362326ea9e704", "4a45591b2dce494429055341cd7b6797e42ac09844ee123934d9ddbdf00a0d69", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{2060, 24620, true, "7c0b6fefab78babec4c5d949ce9fa47c5dfddac217e2bdef6e547df0c3d06ff1", "1e64bf8200e1ae3c861dc800df0db0b93eb34091c886ee216683da5988d4f6aa", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{2060, 24620, true, "34bc3be6ca12563793bcac45dc7853cc815df8106b89945cb756c7a20d977ca6", "e2b7f8afcce9285378b6698b36e9c013517d47fb5febe47b9a910fc3088be21c", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"3d14fdb011158e02457b325e620c9f8ef673ba1074aea313a5965f9b2551224a"},
	{"example2-1024", 0, goldenRun{2057, 34815, true, "61f67021c9ca725d2ec8482ed83a3d4a9c51b01537634ca90abfc53c8ff306cf", "39b0955edd808d426d4dca7d21055c0ec9c88053feeac91c647c4ade04ee8399", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		[4]goldenRun{{2057, 34815, true, "61f67021c9ca725d2ec8482ed83a3d4a9c51b01537634ca90abfc53c8ff306cf", "39b0955edd808d426d4dca7d21055c0ec9c88053feeac91c647c4ade04ee8399", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{2057, 34815, true, "2da9c60f3d80dd2a93b5cce2fcd1b3f4cc1d731be1245989b529134328beb3bc", "fdb7cc24c78b343337175b23c99fe2eed03e1fb30f80a79420d360aac8e4a66a", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{2057, 34815, true, "f2cb652d03c7844d175b95e5d729868310b4b111a47839ed8379a01fed7141b3", "ce3e13261a8f5ff43156bda792efc31b1eda19ca51a714d46b44e18f43cd762b", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{2057, 34815, true, "f61dcd6848a25dd6a48ada6dd9e1095bc3983da171ec8a86ee23782e7cd143f2", "7f6d6199c3c3e6ebc5a866debc15b6c22404bfcee8da33f72ab3b125ab91a3fe", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"30909d3ffb9a917914d8bf900edc8c6fef6cd5d1034bdddabc620be75b5fc34a"},
	{"fig3-1024", 0, goldenRun{2067, 60473, true, "e849dea641eb2323b65565fb0d2d3fe2385c472fc7f8cf4efc3700160bdaba72", "a5a500dfcc4c895b2cd2900937c6eb5576cd0a04c4e6dbb91c085e4420c844fb", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		[4]goldenRun{{2067, 60473, true, "e849dea641eb2323b65565fb0d2d3fe2385c472fc7f8cf4efc3700160bdaba72", "a5a500dfcc4c895b2cd2900937c6eb5576cd0a04c4e6dbb91c085e4420c844fb", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{2067, 60473, true, "bfff8bd700681a12496fcf8a30daf82588da2e249407408f7228ce20eca53ff2", "157c300479a26dde68f0b0303aa174f0edcaf73f4146770cd1c5bcff0b4ce8cc", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{2067, 60473, true, "9e32d02d9f6bd4e84f8717695f6000599bc320f466caebb57352125a5f5ea2c4", "321f21ab0b6f6e63448f8441e65a00af90933d91e15a7695737a8f4866194633", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{2067, 60473, true, "6d42f514f62b8975b84bba9e55fea7e530ca364d74bdf9557b57c0fe536c36ba", "2fedd890ab60f09ffffa1165ef0fc41f13e6d9d43d5952858dc374e2fe842bdc", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"afc6f527cfb6d8eeb735b9142a43ec5434e2ddfee245d19e4476b6f1626259c2"},
	{"weather-1024", 0, goldenRun{2071, 114232, true, "a72d19c3eeae3176a9d5f871330a1e05705e38e7f15d2e473365789ae2e89d15", "8fe62e5eca288e11ff99c4b5b8c7aa6bbf5b486092983839f206940e0ebe175a", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
		[4]goldenRun{{2071, 114232, true, "a72d19c3eeae3176a9d5f871330a1e05705e38e7f15d2e473365789ae2e89d15", "8fe62e5eca288e11ff99c4b5b8c7aa6bbf5b486092983839f206940e0ebe175a", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{2071, 114232, true, "6c93e1cbdf125e64c0795ede62d4d95951cf3326c3ed96031e07d168732c5a4d", "3351de181de518a36b9fa076c4979273784ab568bd3f60f090edc9dab42f221c", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{2071, 114232, true, "21c2b4e12da4e8682f0d8fef7e95386b3317afdb5296f845ca65df4e81386842", "efd5fdee10182d8c9f64ac9d849387063e2ae612a1d089dc1094160c3359cb99", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"},
			{2071, 114231, true, "61fa275530535272a3162c6508c7b25d7735f618122aae161a557c7da7424964", "b86829dfb9bd8bea800486b0c5120411264b3c396b85cce068f2ccc99456e4c9", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"}},
		"9bb7cb53aed0ea96a90fbc2709a239bf9f44552774b7814d98a53b0463762747"},
	{"weather-1024-cut", 300, goldenRun{300, 16281, false, "04a09b09bf9672013e2f22009bfdff02f167da1231d217ddf3b24be23733e9e6", "a0f75af4e37cb9ce2ec6a216ab03894cdd592de8b25549709cbf847d0133517d", "ef6491210937ce1d06be08fea49795e88abcbe1fb9fbe090a88eef98f017314a"},
		[4]goldenRun{{300, 16281, false, "04a09b09bf9672013e2f22009bfdff02f167da1231d217ddf3b24be23733e9e6", "a0f75af4e37cb9ce2ec6a216ab03894cdd592de8b25549709cbf847d0133517d", "ef6491210937ce1d06be08fea49795e88abcbe1fb9fbe090a88eef98f017314a"},
			{300, 16281, false, "edd2871b16e2d4e4cc110d5ec0ef143d1d451d8a93dd4134baebde93f9f65fb6", "01f07035257017075eb15d1f2050c37aa2c85d6fb70eb9328ca0d50d7b3234c6", "a84195c9fdadb6bbd73d398bc38398f7da8a4d4da6d1c5db9644bbb17e650c15"},
			{300, 16280, false, "aa55c8376253e04ca119c1ea2516cad1984569cf86d7de0a2fac182f7f954667", "7eecf4248c40efa685acb492f13afa3e698c776d6d66bd677e8ebfe8586417a4", "797b56790c0b0b034882375b0a3be6209f5042b77aa46811d2ba061f6a7eb229"},
			{300, 16280, false, "1feba8c25845d204852548b3e3272ef55bde3462d773490f43935aa13409676f", "1258e67f48cced6b2c4eb8b4dbf46d1b541bb2372ad7e7d88fa3c858f86cf4b2", "125735affc33be09c5affc8946ee445580456e0f2b5f7e0fc5934a482043af9a"}},
		"bb7dd05c5844f6b361a76bdd19611f730c94dae03e7134c3841cd7f1d3320836"},
}

// goldenCase is one program with the inputs its golden rows run on.
type goldenCase struct {
	name, src string
	inputs    map[string][]value.Value
	maxCycles int
}

func goldenCases(t *testing.T) []goldenCase {
	var cases []goldenCase
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.val"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("testdata programs: %v (found %d)", err, len(paths))
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, goldenCase{name: strings.TrimSuffix(filepath.Base(path), ".val"), src: string(src)})
	}
	for _, p := range []progs.Program{
		progs.Fig2(1024), progs.Fig4(1024), progs.Fig5(1024), progs.Example1(1024),
		progs.Example2(1024), progs.Fig3(1024), progs.Weather(1024),
	} {
		cases = append(cases, goldenCase{name: p.Name + "-1024", src: p.Source, inputs: p.Inputs})
	}
	weather := cases[len(cases)-1]
	weather.name, weather.maxCycles = "weather-1024-cut", 300
	return append(cases, weather)
}

// TestExecGolden runs every goldenCase through exec.Prepare and compares
// each lane's view and the trace digest with execGolden.
func TestExecGolden(t *testing.T) {
	want := map[string]int{}
	for i, g := range execGolden {
		want[g.name] = i
	}
	for _, c := range goldenCases(t) {
		t.Run(c.name, func(t *testing.T) {
			art, err := core.CompileArtifact(c.src, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			inputs := c.inputs
			if inputs == nil {
				inputs = map[string][]value.Value{}
				for _, in := range art.Checked.Inputs {
					inputs[in.Name] = progs.Synth("ramp", in.Len())
				}
			}
			base, err := art.Compiled.BindInputs(inputs)
			if err != nil {
				t.Fatal(err)
			}
			lanes := make([]map[string][]value.Value, 4)
			for l := 1; l < 4; l++ {
				lanes[l] = map[string][]value.Value{}
				for name, vs := range base {
					lanes[l][name] = laneStream(vs, l)
				}
			}
			p, err := exec.Prepare(art.Compiled.Graph)
			if err != nil {
				t.Fatal(err)
			}

			scalarTrace := sha256.New()
			chrome := trace.NewChrome(scalarTrace)
			chrome.Stalls = true
			res, err := p.Run(exec.Options{Inputs: base, Tracer: chrome, MaxCycles: c.maxCycles})
			if err != nil && c.maxCycles == 0 {
				t.Fatal(err)
			}
			if err := chrome.Close(); err != nil {
				t.Fatal(err)
			}
			scalar := pin(t, res)

			batchTrace := sha256.New()
			chrome = trace.NewChrome(batchTrace)
			chrome.Stalls = true
			bres, err := p.Run(exec.Options{Inputs: base, LaneInputs: lanes, Batch: 4, Tracer: chrome, MaxCycles: c.maxCycles})
			if err != nil && c.maxCycles == 0 {
				t.Fatal(err)
			}
			if err := chrome.Close(); err != nil {
				t.Fatal(err)
			}
			var got [4]goldenRun
			for l := range got {
				got[l] = pin(t, bres.Lane(l))
			}
			traceSHA := digest(scalarTrace)
			if b := digest(batchTrace); b != traceSHA {
				t.Errorf("batched lane-0 trace digest %s, scalar %s", b, traceSHA)
			}

			i, ok := want[c.name]
			if !ok {
				t.Fatalf("no golden row; computed:\n%s", goldenRow(c, scalar, got, traceSHA))
			}
			g := execGolden[i]
			if scalar != g.scalar {
				t.Errorf("scalar run %+v, want %+v", scalar, g.scalar)
			}
			for l := range got {
				if got[l] != g.lanes[l] {
					t.Errorf("batched lane %d %+v, want %+v", l, got[l], g.lanes[l])
				}
			}
			if traceSHA != g.traceSHA {
				t.Errorf("Chrome trace digest %s, want %s", traceSHA, g.traceSHA)
			}
			if t.Failed() {
				t.Logf("computed:\n%s", goldenRow(c, scalar, got, traceSHA))
			}
		})
	}
	if n := len(goldenCases(t)); n != len(execGolden) {
		t.Errorf("%d golden rows for %d cases", len(execGolden), n)
	}
}

// TestTokenSizes pins the token width: a value is a kind and one 64-bit
// payload. Every arc slot, operand slot, input and sink stream scales
// with it.
func TestTokenSizes(t *testing.T) {
	if got := unsafe.Sizeof(value.Value{}); got != 16 {
		t.Errorf("value.Value is %d bytes, want 16", got)
	}
}

// laneStream gives lane l its own input: the base stream rotated by l.
func laneStream(vs []value.Value, l int) []value.Value {
	if len(vs) == 0 {
		return vs
	}
	l %= len(vs)
	return append(append([]value.Value(nil), vs[l:]...), vs[:l]...)
}

// pin reduces one lane's view of a result to its goldenRun.
func pin(t *testing.T, r *exec.Result) goldenRun {
	t.Helper()
	firings := 0
	for _, f := range r.Firings {
		firings += f
	}
	return goldenRun{
		cycles: r.Cycles, firings: firings, clean: r.Clean,
		outSHA: jsonSHA(t, r.Outputs), arrSHA: jsonSHA(t, arrivalRecords(r.Outputs, r.Arrivals)), stallSHA: jsonSHA(t, r.Stalled),
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
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func digest(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// goldenRow renders a computed row in execGolden's literal syntax.
func goldenRow(c goldenCase, scalar goldenRun, lanes [4]goldenRun, traceSHA string) string {
	run := func(r goldenRun) string {
		return fmt.Sprintf("{%d, %d, %v, %q, %q, %q}", r.cycles, r.firings, r.clean, r.outSHA, r.arrSHA, r.stallSHA)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "{%q, %d, goldenRun%s,\n\t[4]goldenRun{", c.name, c.maxCycles, run(scalar))
	for l, r := range lanes {
		if l > 0 {
			b.WriteString(",\n\t\t")
		}
		b.WriteString(run(r))
	}
	fmt.Fprintf(&b, "},\n\t%q},", traceSHA)
	return b.String()
}
