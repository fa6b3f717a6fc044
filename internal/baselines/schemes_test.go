package baselines

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/netlint"
	"repro/internal/netlist"
)

// TestSchemeTable locks one small netlist with every scheme of the
// table, writes the key lines, reads them back through the key-file
// codec, and proves the netlist they activate equivalent to the
// original by SAT. The lint options the table returns must pass the
// hygiene analyzers, as cmd/locker's and rild's emit gates require.
func TestSchemeTable(t *testing.T) {
	want := []string{"ril", "lut", "xor", "sarlock", "antisat", "sfll", "caslock", "meso"}
	if got := SchemeNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SchemeNames = %v, want %v", got, want)
	}
	orig := circ(t, 120, 1)
	p := Params{Size: "2x2", Blocks: 2, KeyBits: 6, HD: 1, Seed: 1}
	for _, name := range want {
		for _, scan := range []bool{false, true} {
			if scan && name != "ril" {
				continue
			}
			p.Scan = scan
			l, opts, err := LockScheme(name, orig, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			text := strings.Join(l.Netlist.KeyLines(l.KeyPos, l.Key), "\n") + "\n"
			byName, err := netlist.ParseKey(name, text)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			key, err := l.Netlist.KeyFromNames(l.KeyPos, byName)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			bound, err := l.Netlist.BindInputs(l.KeyPos, key)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			eq, cex, err := attack.EquivalentSAT(orig, bound, time.Minute)
			if err != nil || !eq {
				t.Errorf("%s (scan %v): key file activates a different circuit (err %v, counterexample %v)", name, scan, err, cex)
			}
			if len(opts.Key) != len(l.Key) || (name == "ril") != (opts.Scan != nil) {
				t.Errorf("%s: lint options carry %d key bits of %d, scan chain %v", name, len(opts.Key), len(l.Key), opts.Scan != nil)
			}
			res, err := netlint.Run(l.Netlist, opts, netlint.Hygiene()...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, d := range res.Errors() {
				t.Errorf("%s (scan %v): netlint: %s", name, scan, d)
			}
		}
	}
	if _, _, err := LockScheme("magic", orig, p); err == nil || !strings.Contains(err.Error(), `unknown scheme "magic"`) {
		t.Errorf("unknown scheme: error %v", err)
	}
}
