package attack

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/opt"
	"repro/internal/sat"
	"repro/internal/testutil"
)

// FuzzJournalReplay throws mutated journal bytes at the reader. The
// invariants:
//
//   - ReadJournal never panics, whatever the input.
//   - A rejection wraps ErrJournalCorrupt and names the offending line.
//   - Anything accepted survives a write -> reread round trip through
//     the Journal writer with identical parsed contents, and its
//     records obey the structural rules the reader promises
//     (consecutive iterations, bit widths matching the header).
func FuzzJournalReplay(f *testing.F) {
	// Seed 1: a well-formed finished journal produced by the writer.
	var clean bytes.Buffer
	j := NewJournal(&clean)
	hdr := JournalHeader{Version: JournalVersion, Circuit: "seed", Inputs: 3, Outputs: 2, KeyBits: 4, Fingerprint: "deadbeef"}
	if err := j.WriteHeader(hdr); err != nil {
		f.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		rec := JournalRecord{Iteration: i, DIP: "010", Oracle: "11", ElapsedMS: int64(i), Solver: sat.Snapshot{Vars: i * 7, Clauses: i * 13}}
		if err := j.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Finish(JournalDone{Status: "key-found", Key: "1010", Iterations: 3, ElapsedMS: 3}); err != nil {
		f.Fatal(err)
	}
	full := clean.Bytes()
	f.Add(full)
	f.Add(full[:len(full)/2])            // torn mid-file
	f.Add(full[:len(full)-3])            // torn tail
	f.Add(bytes.ToUpper(full))           // case-mangled
	f.Add([]byte(""))                    // empty
	f.Add([]byte("\n\n\n"))              // blank lines
	f.Add([]byte("{\"crc\":\"bad\"}\n")) // bad envelope
	f.Add([]byte("not json at all\n"))
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)/3] ^= 0x20
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := ReadJournal(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("rejection does not wrap ErrJournalCorrupt: %v", err)
			}
			if !strings.Contains(err.Error(), "line ") {
				t.Fatalf("rejection does not name a line: %v", err)
			}
			return
		}
		if parsed == nil {
			t.Fatal("nil data with nil error")
		}
		// Structural promises on accepted journals.
		for i, rec := range parsed.Records {
			if rec.Iteration != i+1 {
				t.Fatalf("record %d has iteration %d", i, rec.Iteration)
			}
			if len(rec.DIP) != parsed.Header.Inputs {
				t.Fatalf("record %d DIP width %d, header says %d", i, len(rec.DIP), parsed.Header.Inputs)
			}
			if len(rec.Oracle) != parsed.Header.Outputs {
				t.Fatalf("record %d oracle width %d, header says %d", i, len(rec.Oracle), parsed.Header.Outputs)
			}
		}

		// Round trip: re-serialize the accepted content through the
		// writer and reread; both parses must agree.
		var out bytes.Buffer
		w := NewJournal(&out)
		if err := w.WriteHeader(parsed.Header); err != nil {
			t.Fatalf("rewriting accepted header: %v", err)
		}
		for _, rec := range parsed.Records {
			if err := w.Append(rec); err != nil {
				t.Fatalf("rewriting accepted record: %v", err)
			}
		}
		if parsed.Done != nil {
			if err := w.Finish(*parsed.Done); err != nil {
				t.Fatalf("rewriting accepted done: %v", err)
			}
		}
		again, err := ReadJournal(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("reread of rewritten journal failed: %v", err)
		}
		if again.Truncated {
			t.Fatal("rewritten journal reads as truncated")
		}
		if again.Header != parsed.Header || len(again.Records) != len(parsed.Records) {
			t.Fatalf("round trip changed shape: %+v vs %+v", again, parsed)
		}
		for i := range again.Records {
			if again.Records[i] != parsed.Records[i] {
				t.Fatalf("round trip changed record %d: %+v vs %+v", i, again.Records[i], parsed.Records[i])
			}
		}
		if (again.Done == nil) != (parsed.Done == nil) {
			t.Fatal("round trip changed done presence")
		}
		if again.Done != nil && *again.Done != *parsed.Done {
			t.Fatalf("round trip changed done: %+v vs %+v", again.Done, parsed.Done)
		}
	})
}

// equivalentFull is the miter EquivalentSAT solved before it hashed:
// two full Tseitin copies over shared inputs, one XOR per output and
// their difference clause, all of it solved. FuzzEquivalentSAT checks
// the hashed miter's verdicts against it.
func equivalentFull(a, b *netlist.Netlist, timeout time.Duration) (bool, []bool, error) {
	enc := cnf.NewEncoder()
	ga, err := enc.Encode(a, nil)
	if err != nil {
		return false, nil, err
	}
	shared := make(map[int]cnf.Var, len(ga.Inputs))
	for p, v := range ga.Inputs {
		shared[p] = v
	}
	gb, err := enc.Encode(b, shared)
	if err != nil {
		return false, nil, err
	}
	enc.F.AddClause(encodeDiffs(enc, ga, gb)...)
	solver := loadSolver(enc.F, time.Now().Add(timeout))
	switch solver.Solve() {
	case sat.Unsat:
		return true, nil, nil
	case sat.Sat:
		cex := make([]bool, len(ga.Inputs))
		for i, v := range ga.Inputs {
			cex[i] = solver.Model()[v]
		}
		return false, cex, nil
	}
	return false, nil, ErrEquivalenceTimeout
}

// flipGate returns a copy of n with the type of its pick-th logic gate
// (counted modulo their number) swapped for another of its arity: AND
// with OR, NAND with NOR, XOR with XNOR, NOT with BUF.
func flipGate(n *netlist.Netlist, pick int) *netlist.Netlist {
	c := n.Clone()
	var logic []int
	for id, g := range c.Gates {
		switch g.Type {
		case netlist.Input, netlist.Const0, netlist.Const1, netlist.Mux:
		default:
			logic = append(logic, id)
		}
	}
	g := &c.Gates[logic[pick%len(logic)]]
	g.Type = map[netlist.GateType]netlist.GateType{
		netlist.And: netlist.Or, netlist.Or: netlist.And,
		netlist.Nand: netlist.Nor, netlist.Nor: netlist.Nand,
		netlist.Xor: netlist.Xnor, netlist.Xnor: netlist.Xor,
		netlist.Not: netlist.Buf, netlist.Buf: netlist.Not,
	}[g.Type]
	return c
}

// FuzzEquivalentSAT compares EquivalentSAT's verdict with the
// two-full-copy reference on pairs built from a fuzzed netlist.Random
// circuit, by mode: a copy with one gate type flipped; an XOR lock or a
// one-block 2×2 RIL lock bound with its key or with a random key; and
// the circuit opt.Optimize returns. Every counterexample either side
// gives must tell the circuits apart in simulation.
func FuzzEquivalentSAT(f *testing.F) {
	for mode := uint8(0); mode < 6; mode++ {
		f.Add(int64(mode)+1, uint8(40), uint8(5), mode, uint16(7))
	}
	f.Add(int64(23), uint8(28), uint8(11), uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, gates, outputs, mode uint8, pick uint16) {
		a := testutil.RandomCircuit(t, 8, 1+int(outputs%6), 20+int(gates%100), seed)
		var b *netlist.Netlist
		var err error
		switch mode % 6 {
		case 0:
			b = flipGate(a, int(pick))
		case 1, 2: // an XOR lock, bound with its key or a random one
			locked, keyPos, key := testutil.XORLock(t, a, 1+int(pick%8), seed)
			if mode%6 == 2 {
				key = testutil.RandomKey(len(key), int64(pick))
			}
			b, err = locked.BindInputs(keyPos, key)
		case 3, 4: // a RIL lock, bound with its key or a random one
			res, lerr := core.Lock(a, core.Options{Blocks: 1, Size: core.Size2x2, Seed: int64(pick)})
			if lerr != nil {
				t.Skip("circuit cannot host the block:", lerr)
			}
			key := res.Key
			if mode%6 == 4 {
				key = testutil.RandomKey(len(key), int64(pick))
			}
			b, err = res.ApplyKey(key)
		case 5:
			b = a.Clone()
			_, err = opt.Optimize(b)
		}
		if err != nil {
			t.Fatal(err)
		}
		eq, cex, err := EquivalentSAT(a, b, 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		want, refCex, err := equivalentFull(a, b, 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if eq != want {
			t.Fatalf("hashed miter says equivalent=%v, two full copies %v", eq, want)
		}
		for _, x := range [][]bool{cex, refCex} {
			if x == nil {
				continue
			}
			sa, err := netlist.NewSimulator(a)
			if err != nil {
				t.Fatal(err)
			}
			sb, err := netlist.NewSimulator(b)
			if err != nil {
				t.Fatal(err)
			}
			if slices.Equal(sa.Eval(x), sb.Eval(x)) {
				t.Fatalf("counterexample %s does not tell the circuits apart", BitString(x))
			}
		}
	})
}
