package netlist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ParseBench reads a netlist in the ISCAS .bench format:
//
//	# comment
//	INPUT(a)
//	OUTPUT(y)
//	y = NAND(a, b)
//	q = DFF(d)
//
// DFF gates are scan-converted per the full-scan SAT-attack threat
// model: each DFF output becomes a pseudo primary input and its data
// pin becomes a pseudo primary output. Use ParseBenchSeq to retain the
// flip-flop count for sequential analysis.
func ParseBench(name string, r io.Reader) (*Netlist, error) {
	nl, _, err := ParseBenchSeq(name, r)
	return nl, err
}

// benchDef is one parsed gate assignment.
type benchDef struct {
	out  string
	op   string
	args []string
	line int
}

// benchDecl is one parsed INPUT/OUTPUT declaration (or a derived
// reference, such as a DFF data pin) with its source line.
type benchDecl struct {
	name string
	line int
}

// benchFile is the raw parse of a .bench source, shared by the strict
// and lax builders.
type benchFile struct {
	inputs  []benchDecl
	outputs []benchDecl
	defs    []benchDef
}

// scanBench tokenizes a .bench source into declarations and gate
// definitions, reporting syntax errors with their line numbers.
func scanBench(name string, r io.Reader) (*benchFile, error) {
	var bf benchFile
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(strings.ToUpper(line), "INPUT("):
			arg, err := parenArg(line)
			if err != nil {
				return nil, fmt.Errorf("bench %s line %d: %v", name, lineNo, err)
			}
			bf.inputs = append(bf.inputs, benchDecl{name: arg, line: lineNo})
		case strings.HasPrefix(strings.ToUpper(line), "OUTPUT("):
			arg, err := parenArg(line)
			if err != nil {
				return nil, fmt.Errorf("bench %s line %d: %v", name, lineNo, err)
			}
			bf.outputs = append(bf.outputs, benchDecl{name: arg, line: lineNo})
		default:
			eq := strings.Index(line, "=")
			if eq < 0 {
				return nil, fmt.Errorf("bench %s line %d: expected assignment, got %q", name, lineNo, line)
			}
			out := strings.TrimSpace(line[:eq])
			if out == "" {
				// Found by fuzzing: "=DFF(d)" would define a gate named
				// "" whose scan-converted pseudo input serializes as the
				// unparseable "INPUT()".
				return nil, fmt.Errorf("bench %s line %d: empty gate name in %q", name, lineNo, line)
			}
			rhs := strings.TrimSpace(line[eq+1:])
			lp := strings.Index(rhs, "(")
			rp := strings.LastIndex(rhs, ")")
			if lp < 0 || rp < lp {
				return nil, fmt.Errorf("bench %s line %d: gate %q: malformed right-hand side %q", name, lineNo, out, rhs)
			}
			op := strings.ToUpper(strings.TrimSpace(rhs[:lp]))
			var args []string
			inner := strings.TrimSpace(rhs[lp+1 : rp])
			if inner != "" {
				for _, a := range strings.Split(inner, ",") {
					args = append(args, strings.TrimSpace(a))
				}
			}
			bf.defs = append(bf.defs, benchDef{out: out, op: op, args: args, line: lineNo})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench %s: %v", name, err)
	}
	return &bf, nil
}

// addBenchInputs declares the primary inputs and the DFF pseudo inputs
// (scan conversion), returning the DFF data-pin references. Shared by
// the strict and lax builders.
func addBenchInputs(n *Netlist, name string, bf *benchFile) ([]benchDecl, error) {
	for _, in := range bf.inputs {
		if _, dup := n.GateID(in.name); dup {
			return nil, fmt.Errorf("bench %s line %d: duplicate INPUT(%s)", name, in.line, in.name)
		}
		n.AddInput(in.name)
	}
	// DFFs first: their outputs become pseudo inputs so that later
	// gates can reference them.
	var scanouts []benchDecl
	for _, d := range bf.defs {
		if d.op != "DFF" {
			continue
		}
		if len(d.args) != 1 {
			return nil, fmt.Errorf("bench %s line %d: DFF %q takes 1 argument, got %d", name, d.line, d.out, len(d.args))
		}
		if _, dup := n.GateID(d.out); dup {
			return nil, fmt.Errorf("bench %s line %d: duplicate definition of %q", name, d.line, d.out)
		}
		n.AddInput(d.out)
		scanouts = append(scanouts, benchDecl{name: d.args[0], line: d.line})
	}
	return scanouts, nil
}

// ParseBenchSeq parses a .bench file and additionally reports the
// number of DFFs that were scan-converted. The pseudo state inputs are
// the last nDFF entries of Inputs; the pseudo next-state outputs are
// the last nDFF entries of Outputs (in matching order), which is
// exactly the layout the seq package rebuilds sequential circuits from.
func ParseBenchSeq(name string, r io.Reader) (*Netlist, int, error) {
	bf, err := scanBench(name, r)
	if err != nil {
		return nil, 0, err
	}
	n := New(name)
	scanouts, err := addBenchInputs(n, name, bf)
	if err != nil {
		return nil, 0, err
	}

	// Multi-pass resolution of combinational definitions: a .bench file
	// may reference gates defined later.
	pending := make([]benchDef, 0, len(bf.defs))
	for _, d := range bf.defs {
		if d.op != "DFF" {
			pending = append(pending, d)
		}
	}
	for len(pending) > 0 {
		progress := false
		var next []benchDef
		for _, d := range pending {
			ids := make([]int, 0, len(d.args))
			ok := true
			for _, a := range d.args {
				id, exists := n.GateID(a)
				if !exists {
					ok = false
					break
				}
				ids = append(ids, id)
			}
			if !ok {
				next = append(next, d)
				continue
			}
			t, err := parseGateType(d.op)
			if err != nil {
				return nil, 0, fmt.Errorf("bench %s line %d: gate %q: %v", name, d.line, d.out, err)
			}
			if !t.ArityOK(len(ids)) {
				return nil, 0, fmt.Errorf("bench %s line %d: gate %q: %s cannot take %d argument(s)", name, d.line, d.out, t, len(ids))
			}
			if _, dup := n.GateID(d.out); dup {
				return nil, 0, fmt.Errorf("bench %s line %d: duplicate definition of %q", name, d.line, d.out)
			}
			n.AddGate(d.out, t, ids...)
			progress = true
		}
		if !progress {
			return nil, 0, fmt.Errorf("bench %s line %d: gate %q: unresolvable references (cycle or missing gate)",
				name, next[0].line, next[0].out)
		}
		pending = next
	}

	for _, o := range bf.outputs {
		id, ok := n.GateID(o.name)
		if !ok {
			return nil, 0, fmt.Errorf("bench %s line %d: OUTPUT(%s) is never defined", name, o.line, o.name)
		}
		n.MarkOutput(id)
	}
	for _, so := range scanouts {
		id, ok := n.GateID(so.name)
		if !ok {
			return nil, 0, fmt.Errorf("bench %s line %d: DFF data pin %q is never defined", name, so.line, so.name)
		}
		n.MarkOutput(id)
	}
	if err := n.Validate(); err != nil {
		return nil, 0, err
	}
	return n, len(scanouts), nil
}

// ParseBenchLax parses a .bench file without requiring structural
// soundness: combinational cycles, references to nets no line defines,
// and undefined OUTPUT declarations are admitted rather than rejected,
// so that static analysis (the netlint package) can inspect malformed
// netlists and name the defect precisely. Each undefined net is
// materialized as a dangling Input-type gate that is NOT registered in
// the primary input list — exactly the shape netlint's undriven
// analyzer flags. Syntax errors, unknown gate types, arity violations
// and duplicate definitions are still reported, with line numbers.
// The DFF scan conversion matches ParseBenchSeq.
func ParseBenchLax(name string, r io.Reader) (*Netlist, int, error) {
	bf, err := scanBench(name, r)
	if err != nil {
		return nil, 0, err
	}
	n := New(name)
	scanouts, err := addBenchInputs(n, name, bf)
	if err != nil {
		return nil, 0, err
	}

	// Predeclare every combinational definition's output so forward
	// references — including cyclic ones — resolve to the right gate.
	var comb []benchDef
	for _, d := range bf.defs {
		if d.op == "DFF" {
			continue
		}
		t, err := parseGateType(d.op)
		if err != nil {
			return nil, 0, fmt.Errorf("bench %s line %d: gate %q: %v", name, d.line, d.out, err)
		}
		if !t.ArityOK(len(d.args)) {
			return nil, 0, fmt.Errorf("bench %s line %d: gate %q: %s cannot take %d argument(s)", name, d.line, d.out, t, len(d.args))
		}
		if _, dup := n.GateID(d.out); dup {
			return nil, 0, fmt.Errorf("bench %s line %d: duplicate definition of %q", name, d.line, d.out)
		}
		n.addGate(d.out, t, nil)
		comb = append(comb, d)
	}
	// dangling resolves a net name, materializing undefined nets as
	// Input-type gates outside the primary input list.
	dangling := func(net string) int {
		if id, ok := n.GateID(net); ok {
			return id
		}
		return n.addGate(net, Input, nil)
	}
	for _, d := range comb {
		ids := make([]int, len(d.args))
		for i, a := range d.args {
			ids[i] = dangling(a)
		}
		n.Gates[n.MustGateID(d.out)].Fanin = ids
	}
	for _, o := range bf.outputs {
		n.MarkOutput(dangling(o.name))
	}
	for _, so := range scanouts {
		n.MarkOutput(dangling(so.name))
	}
	return n, len(scanouts), nil
}

func parenArg(line string) (string, error) {
	lp := strings.Index(line, "(")
	rp := strings.LastIndex(line, ")")
	if lp < 0 || rp < lp {
		return "", fmt.Errorf("malformed declaration %q", line)
	}
	arg := strings.TrimSpace(line[lp+1 : rp])
	if arg == "" {
		return "", fmt.Errorf("empty declaration %q", line)
	}
	return arg, nil
}

func parseGateType(op string) (GateType, error) {
	switch op {
	case "AND":
		return And, nil
	case "NAND":
		return Nand, nil
	case "OR":
		return Or, nil
	case "NOR":
		return Nor, nil
	case "XOR":
		return Xor, nil
	case "XNOR":
		return Xnor, nil
	case "NOT", "INV":
		return Not, nil
	case "BUF", "BUFF":
		return Buf, nil
	case "MUX":
		return Mux, nil
	case "CONST0", "GND":
		return Const0, nil
	case "CONST1", "VDD":
		return Const1, nil
	}
	return 0, fmt.Errorf("unknown gate type %q", op)
}

// WriteBench emits the netlist in .bench format. Gates are written in
// topological order so the file parses in one pass with standard tools.
// The text is assembled in the bufio.Writer's own buffer, so writing a
// netlist allocates the same few times whatever its size; the writer's
// errors are sticky, and Flush reports the first.
func (n *Netlist) WriteBench(w io.Writer) error {
	bw := bufio.NewWriter(w)
	num := func(v int) { bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(v), 10)) }
	bw.WriteString("# ")
	bw.WriteString(n.Name)
	bw.WriteString("\n# ")
	num(len(n.Inputs))
	bw.WriteString(" inputs, ")
	num(len(n.Outputs))
	bw.WriteString(" outputs, ")
	num(n.NumLogicGates())
	bw.WriteString(" gates\n")
	decl := func(kw string, ids []int) {
		for _, id := range ids {
			bw.WriteString(kw)
			bw.WriteString(n.Gates[id].Name)
			bw.WriteString(")\n")
		}
	}
	decl("INPUT(", n.Inputs)
	decl("OUTPUT(", n.Outputs)
	order, err := n.TopoOrder()
	if err != nil {
		return err
	}
	for _, id := range order {
		g := &n.Gates[id]
		if g.Type == Input {
			continue
		}
		bw.WriteString(g.Name)
		bw.WriteString(" = ")
		bw.WriteString(benchOpName(g.Type))
		bw.WriteByte('(')
		for i, f := range g.Fanin {
			if i > 0 {
				bw.WriteString(", ")
			}
			bw.WriteString(n.Gates[f].Name)
		}
		bw.WriteString(")\n")
	}
	return bw.Flush()
}

func benchOpName(t GateType) string {
	switch t {
	case Not:
		return "NOT"
	case Buf:
		return "BUFF"
	default:
		return t.String()
	}
}

// Stats summarizes a netlist for reporting.
type Stats struct {
	Name      string
	Inputs    int
	Outputs   int
	Gates     int // logic gates, excluding inputs/constants
	Depth     int
	TypeCount map[GateType]int
}

// ComputeStats gathers counts and depth.
func (n *Netlist) ComputeStats() (Stats, error) {
	_, depth, err := n.Levels()
	if err != nil {
		return Stats{}, err
	}
	s := Stats{
		Name:      n.Name,
		Inputs:    len(n.Inputs),
		Outputs:   len(n.Outputs),
		Gates:     n.NumLogicGates(),
		Depth:     depth,
		TypeCount: map[GateType]int{},
	}
	for i := range n.Gates {
		s.TypeCount[n.Gates[i].Type]++
	}
	return s, nil
}

// String renders the stats compactly with gate types sorted by name.
func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d in, %d out, %d gates, depth %d",
		s.Name, s.Inputs, s.Outputs, s.Gates, s.Depth)
	type kv struct {
		t GateType
		c int
	}
	var kvs []kv
	for t, c := range s.TypeCount {
		if t == Input {
			continue
		}
		kvs = append(kvs, kv{t, c})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].t < kvs[j].t })
	for _, e := range kvs {
		fmt.Fprintf(&sb, " %s=%d", e.t, e.c)
	}
	return sb.String()
}
