package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/baselines"
	"repro/internal/circuit"
	"repro/internal/netlist"
)

// TestOutputPins pins the SHA-256 of locker's .bench and key files for
// every scheme on c17 and on c7552 at scale 0.25, as
//
//	locker -in testdata/c17.bench -scheme S ... -out O -keyout K
//	benchgen -name c7552 -scale 0.25 -out c7552.bench
//	locker -in c7552.bench -scheme S ... -out O -keyout K
//
// write them. The netlist name, the -in path, heads the .bench text.
// The pins were recorded before the schemes moved into one table; the
// many-block ril cases (100 2×2 blocks, three 8×8×8 blocks) before the
// netlist passes became linear.
func TestOutputPins(t *testing.T) {
	c17, err := os.ReadFile("../../testdata/c17.bench")
	if err != nil {
		t.Fatal(err)
	}
	prof, ok := circuit.ProfileByName("c7552")
	if !ok {
		t.Fatal("no c7552 profile")
	}
	nl, err := prof.Synthesize(0.25)
	if err != nil {
		t.Fatal(err)
	}
	var c7552 bytes.Buffer
	if err := nl.WriteBench(&c7552); err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]byte{"testdata/c17.bench": c17, "c7552.bench": c7552.Bytes()}

	cases := []struct {
		in, scheme string
		p          baselines.Params
		bench, key string
	}{
		{"testdata/c17.bench", "ril", baselines.Params{Size: "2x2", Blocks: 1, Seed: 1},
			"7dbf5ef81b6f4a79e7f911bca47b7e36df0c44900b70bd925aa852ef830bdfd6", "5878092fa2e976a6ff6928d368d8cdb2b6567f6615e64cdf9e7bc56cbf543aa3"},
		{"testdata/c17.bench", "lut", baselines.Params{Blocks: 2, Seed: 1},
			"303cb03ca3c94dc41eef80aa76c4bf55d0067625b598cc448a79711f7849be69", "37ee6001fb4cb346545a5ed310d1be7441bf4c8fa86eb03ab5b7c29419dbaf14"},
		{"testdata/c17.bench", "xor", baselines.Params{KeyBits: 4, Seed: 1},
			"4b3e7ddf7646933d39e12f62cd6ad1cb0f7c6f2805c95c1154e9089428bf9d9b", "d92c22a2149c0dd22285862d35ad42d42934b139cd17bc9cb41518f5999f2f34"},
		{"testdata/c17.bench", "sarlock", baselines.Params{KeyBits: 4, Seed: 1},
			"1df9640ed87fde82e0ac5686428a301c70cffcaabe00726689d3957b3d27a180", "bb11ee24632148363eed023dc633f56e89475c708561875d04cd24d2ec3ac5fc"},
		{"testdata/c17.bench", "antisat", baselines.Params{KeyBits: 4, Seed: 1},
			"daaf273c4e184c2292f405947d236ec304d8914e4258baa02508c74bf5fe8368", "609eb3dac2a3cf7bdbf315f757d8e004f4567b37d2e86a7ba67208a2770316fa"},
		{"testdata/c17.bench", "sfll", baselines.Params{KeyBits: 4, HD: 1, Seed: 1},
			"7183a5f64c23eb2ae18e1bc8d3f6bc566d14005220f82f7aa52dc5f8a8c2aae7", "bb11ee24632148363eed023dc633f56e89475c708561875d04cd24d2ec3ac5fc"},
		{"testdata/c17.bench", "caslock", baselines.Params{KeyBits: 4, Seed: 1},
			"307601c08bbb0942e3fe61b82e6898feda1a468c5ee029a1c75b179d36709d0c", "bb11ee24632148363eed023dc633f56e89475c708561875d04cd24d2ec3ac5fc"},
		{"testdata/c17.bench", "meso", baselines.Params{Blocks: 2, Seed: 1},
			"b658a7fa5300373c95f9d53eba3d6ca4d2561435e230d5213f0ff37e1e91c9ce", "ea4428ec5b591309a37470a5b714502a916716d20cea3ca45af597ed46b948a5"},
		{"c7552.bench", "ril", baselines.Params{Size: "8x8", Blocks: 2, Seed: 3},
			"1d554d91de2692c28024a064d0f125d3b43f2d7dd441055703e05b0299eb59a7", "e0e894b67b6daef68eb8fea14cb548d414d7ea932912a08d9fd4f411c496cbc2"},
		{"c7552.bench", "ril", baselines.Params{Size: "8x8x8", Blocks: 1, Seed: 1, Scan: true},
			"4a5dc744b6497fa99986b41d195a6ac0706e06de7973e7cc93056da5da6e0a86", "11995af0b694927040efc47493c5684b7266812b5895dcddb7ce05ba5569f280"},
		{"c7552.bench", "ril", baselines.Params{Size: "2x2", Blocks: 100, Seed: 1},
			"bd94dff0cf80fb2a220c1219759c17992b173ffc5b432162442e46d57f8bb6e1", "641c34d4838798e79c7ceb77df4fef7282ddb25d2a415a48b01de25f7fdafa8a"},
		{"c7552.bench", "ril", baselines.Params{Size: "8x8x8", Blocks: 3, Seed: 1},
			"5aa3beba864c47ef3ea27a52972604c7a2160884db644f86c62461ecbc68ebca", "cc819abda08f058dfa2bee34ee3673130a959f8030f030b9bd73e6231d301846"},
		{"c7552.bench", "lut", baselines.Params{Blocks: 8, Seed: 1},
			"42ad1c31f660d36fb2807075cd9955f09cc7f9e3ba1ff07a2ca8d6c9a0e4d625", "9c5a080b9cbb01d99257cedf4b84cb4efbf1687e77efb62261f43d4a496d5797"},
		{"c7552.bench", "xor", baselines.Params{KeyBits: 32, Seed: 1},
			"dbe378c0585626572d7159f480f4955f824aff7dba9f52e486927c0d7a72573f", "290d6068bff18bbcc536e3600cebb9379a2b9b609e0cf0c251bf7c6f4b9d12ab"},
		{"c7552.bench", "sarlock", baselines.Params{KeyBits: 16, Seed: 1},
			"1940b249afb1b243951021aee43759cb67a28035c6215b9a78889568ff28d571", "2b008fc32aae5e27d4633cea5b71a1bc781a9ed07694f1e90f9067fd1017a388"},
		{"c7552.bench", "antisat", baselines.Params{KeyBits: 16, Seed: 1},
			"c6ab22ea6e9b4b9062731b780975efa1c59de2d436b497aea540568fafbc41d7", "6262a4a2a321215e55e4626a8250bcac8c208712b9961663674cec29c59507b7"},
		{"c7552.bench", "sfll", baselines.Params{KeyBits: 16, HD: 2, Seed: 1},
			"fdee5cc9fd07402700184d8c19cd522d27a8bb84f18c7f985d9dffc8861a7a00", "2b008fc32aae5e27d4633cea5b71a1bc781a9ed07694f1e90f9067fd1017a388"},
		{"c7552.bench", "caslock", baselines.Params{KeyBits: 16, Seed: 1},
			"2aa9ce001b29c2c0e6664f9134865d92933d965e8cf53dc80928c738ed2a519a", "2b008fc32aae5e27d4633cea5b71a1bc781a9ed07694f1e90f9067fd1017a388"},
		{"c7552.bench", "meso", baselines.Params{Blocks: 8, Seed: 1},
			"6684c1f3766485991815add0e57977494878d155eed6266e91d0e8cf828ce85f", "f7b60a0ea45abfa6e7044fa70a3601879594a26aa143b8925a8d676addf512b6"},
	}
	dir := t.TempDir()
	out, keyout := filepath.Join(dir, "locked.bench"), filepath.Join(dir, "key.txt")
	for _, tc := range cases {
		orig, err := netlist.ParseBench(tc.in, bytes.NewReader(inputs[tc.in]))
		if err != nil {
			t.Fatal(err)
		}
		l, _, err := baselines.LockScheme(tc.scheme, orig, tc.p)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.in, tc.scheme, err)
		}
		art, err := newArtifact(l)
		if err != nil {
			t.Fatal(err)
		}
		if err := emit(art, out, keyout); err != nil {
			t.Fatal(err)
		}
		for _, f := range []struct{ path, want string }{{out, tc.bench}, {keyout, tc.key}} {
			raw, err := os.ReadFile(f.path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); got != f.want {
				t.Errorf("%s %s %+v: %s SHA-256 %s, want %s", tc.in, tc.scheme, tc.p, filepath.Base(f.path), got, f.want)
			}
		}
	}
}
