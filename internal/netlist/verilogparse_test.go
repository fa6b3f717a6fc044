package netlist

// The Verilog reader is a test oracle: no tool reads Verilog, but
// FuzzParseVerilog parses WriteVerilog's output back to check that it
// is logically the netlist.

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// ParseVerilog reads a structural Verilog module in the subset
// WriteVerilog emits (and common hardware-security benchmark releases
// use): one module with scalar `input wire`/`output wire` ports, `wire`
// declarations, primitive gate instantiations
// (and/or/nand/nor/xor/xnor/not/buf with the output first), and
// `assign` statements whose right-hand side is a constant (1'b0/1'b1),
// a plain net (alias), or a ternary MUX `sel ? b : a`. Comments (`//`)
// are stripped. Statements may appear in any order; forward references
// resolve in a second pass. Output-port assigns (`assign po = net;`)
// mark the driven net as a primary output rather than creating a gate,
// matching WriteVerilog's port renaming, so a Write→Parse round trip
// is functionally the identity.
func ParseVerilog(name string, r io.Reader) (*Netlist, error) {
	src, err := scanVerilog(name, r)
	if err != nil {
		return nil, err
	}
	n := New(src.module)
	if name != "" {
		n.Name = name
	}
	for _, p := range src.inputs {
		if _, dup := n.GateID(p.name); dup {
			return nil, fmt.Errorf("verilog %s line %d: duplicate input %q", name, p.line, p.name)
		}
		n.AddInput(p.name)
	}
	isOutPort := make(map[string]int, len(src.outputs)) // port name -> order
	for i, p := range src.outputs {
		if _, dup := isOutPort[p.name]; dup {
			return nil, fmt.Errorf("verilog %s line %d: duplicate output %q", name, p.line, p.name)
		}
		isOutPort[p.name] = i
	}

	// First pass: declare every defined net so forward references
	// resolve; detect duplicate drivers. Output-port aliases are
	// deferred: they mark outputs instead of defining gates.
	outDriver := make([]string, len(src.outputs)) // net driving each output port
	outLine := make([]int, len(src.outputs))
	var defs []vlDef
	for _, d := range src.defs {
		if d.op == vlAlias {
			if oi, ok := isOutPort[d.out]; ok {
				if outDriver[oi] != "" {
					return nil, fmt.Errorf("verilog %s line %d: output %q assigned twice", name, d.line, d.out)
				}
				outDriver[oi] = d.args[0]
				outLine[oi] = d.line
				continue
			}
		}
		if _, ok := isOutPort[d.out]; ok {
			return nil, fmt.Errorf("verilog %s line %d: output port %q driven by a non-alias statement", name, d.line, d.out)
		}
		if _, dup := n.GateID(d.out); dup {
			return nil, fmt.Errorf("verilog %s line %d: duplicate driver for %q", name, d.line, d.out)
		}
		n.addGate(d.out, d.typ, nil)
		defs = append(defs, d)
	}
	// Second pass: connect fanins.
	for _, d := range defs {
		ids := make([]int, len(d.args))
		for i, a := range d.args {
			id, ok := n.GateID(a)
			if !ok {
				return nil, fmt.Errorf("verilog %s line %d: %q reads undriven net %q", name, d.line, d.out, a)
			}
			ids[i] = id
		}
		if !d.typ.ArityOK(len(ids)) {
			return nil, fmt.Errorf("verilog %s line %d: %s gate %q cannot take %d argument(s)",
				name, d.line, d.typ, d.out, len(ids))
		}
		n.Gates[n.MustGateID(d.out)].Fanin = ids
	}
	for i, p := range src.outputs {
		if outDriver[i] == "" {
			return nil, fmt.Errorf("verilog %s: output %q is never assigned", name, p.name)
		}
		id, ok := n.GateID(outDriver[i])
		if !ok {
			return nil, fmt.Errorf("verilog %s line %d: output %q reads undriven net %q",
				name, outLine[i], p.name, outDriver[i])
		}
		n.MarkOutput(id)
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// vlAlias tags an `assign x = y;` statement before it is resolved into
// either an output-port marking or a Buf gate.
const vlAlias = "alias"

// vlDef is one parsed net definition.
type vlDef struct {
	out  string
	op   string // primitive name, "assign", or vlAlias
	typ  GateType
	args []string
	line int
}

// vlPort is one declared port.
type vlPort struct {
	name string
	line int
}

// vlFile is the raw parse of a Verilog source.
type vlFile struct {
	module  string
	inputs  []vlPort
	outputs []vlPort
	defs    []vlDef
}

// scanVerilog tokenizes the module into ports and net definitions.
func scanVerilog(name string, r io.Reader) (*vlFile, error) {
	var src vlFile
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	sawModule, sawEnd := false, false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.Index(line, "//"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "module "):
			if sawModule {
				return nil, fmt.Errorf("verilog %s line %d: second module", name, lineNo)
			}
			sawModule = true
			rest := strings.TrimSpace(strings.TrimPrefix(line, "module "))
			if i := strings.IndexAny(rest, " (;"); i >= 0 {
				rest = rest[:i]
			}
			if rest == "" {
				return nil, fmt.Errorf("verilog %s line %d: missing module name", name, lineNo)
			}
			src.module = rest
		case strings.HasPrefix(line, "input "):
			p, err := vlPortName(line, "input")
			if err != nil {
				return nil, fmt.Errorf("verilog %s line %d: %v", name, lineNo, err)
			}
			src.inputs = append(src.inputs, vlPort{name: p, line: lineNo})
		case strings.HasPrefix(line, "output "):
			p, err := vlPortName(line, "output")
			if err != nil {
				return nil, fmt.Errorf("verilog %s line %d: %v", name, lineNo, err)
			}
			src.outputs = append(src.outputs, vlPort{name: p, line: lineNo})
		case strings.HasPrefix(line, "wire "):
			// Declarations carry no structure; drivers define nets.
		case line == ");" || line == "(" || line == ";":
			// Port-list punctuation on its own line.
		case strings.HasPrefix(line, "endmodule"):
			sawEnd = true
		case strings.HasPrefix(line, "assign "):
			d, err := vlParseAssign(line, lineNo)
			if err != nil {
				return nil, fmt.Errorf("verilog %s line %d: %v", name, lineNo, err)
			}
			src.defs = append(src.defs, d)
		default:
			d, err := vlParseInstance(line, lineNo)
			if err != nil {
				return nil, fmt.Errorf("verilog %s line %d: %v", name, lineNo, err)
			}
			src.defs = append(src.defs, d)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("verilog %s: %v", name, err)
	}
	if !sawModule {
		return nil, fmt.Errorf("verilog %s: no module declaration", name)
	}
	if !sawEnd {
		return nil, fmt.Errorf("verilog %s: missing endmodule", name)
	}
	return &src, nil
}

// vlPortName extracts the identifier from `input wire x` / `output x,`.
func vlPortName(line, kind string) (string, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(line, kind))
	rest = strings.TrimSuffix(strings.TrimSuffix(rest, ","), ";")
	rest = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), "wire"))
	rest = strings.TrimSpace(rest)
	if rest == "" || strings.ContainsAny(rest, " \t[]") {
		return "", fmt.Errorf("unsupported %s declaration %q (scalar wires only)", kind, line)
	}
	return rest, nil
}

// vlParseAssign parses `assign x = rhs;` where rhs is a constant, a
// net alias, or a ternary MUX.
func vlParseAssign(line string, lineNo int) (vlDef, error) {
	body := strings.TrimSpace(strings.TrimPrefix(line, "assign "))
	if !strings.HasSuffix(body, ";") {
		return vlDef{}, fmt.Errorf("assign missing semicolon: %q", line)
	}
	body = strings.TrimSpace(strings.TrimSuffix(body, ";"))
	eq := strings.Index(body, "=")
	if eq < 0 {
		return vlDef{}, fmt.Errorf("malformed assign %q", line)
	}
	out := strings.TrimSpace(body[:eq])
	rhs := strings.TrimSpace(body[eq+1:])
	if out == "" || rhs == "" {
		return vlDef{}, fmt.Errorf("malformed assign %q", line)
	}
	switch rhs {
	case "1'b0":
		return vlDef{out: out, op: "assign", typ: Const0, line: lineNo}, nil
	case "1'b1":
		return vlDef{out: out, op: "assign", typ: Const1, line: lineNo}, nil
	}
	if q := strings.Index(rhs, "?"); q >= 0 {
		c := strings.Index(rhs[q:], ":")
		if c < 0 {
			return vlDef{}, fmt.Errorf("malformed ternary %q", rhs)
		}
		sel := strings.TrimSpace(rhs[:q])
		tArm := strings.TrimSpace(rhs[q+1 : q+c])
		fArm := strings.TrimSpace(rhs[q+c+1:])
		if !vlIdentOK(sel) || !vlIdentOK(tArm) || !vlIdentOK(fArm) {
			return vlDef{}, fmt.Errorf("unsupported ternary operands in %q", rhs)
		}
		// WriteVerilog emits `sel ? b : a` for Mux(sel, a, b).
		return vlDef{out: out, op: "assign", typ: Mux, args: []string{sel, fArm, tArm}, line: lineNo}, nil
	}
	if !vlIdentOK(rhs) {
		return vlDef{}, fmt.Errorf("unsupported assign right-hand side %q", rhs)
	}
	return vlDef{out: out, op: vlAlias, typ: Buf, args: []string{rhs}, line: lineNo}, nil
}

// vlParseInstance parses `prim Uname (out, in...);`.
func vlParseInstance(line string, lineNo int) (vlDef, error) {
	lp := strings.Index(line, "(")
	rp := strings.LastIndex(line, ")")
	if lp < 0 || rp < lp || !strings.HasSuffix(strings.TrimSpace(line[rp:]), ");") {
		return vlDef{}, fmt.Errorf("unsupported statement %q", line)
	}
	head := strings.Fields(strings.TrimSpace(line[:lp]))
	if len(head) != 2 {
		return vlDef{}, fmt.Errorf("unsupported instantiation head %q", line)
	}
	var typ GateType
	switch head[0] {
	case "and":
		typ = And
	case "nand":
		typ = Nand
	case "or":
		typ = Or
	case "nor":
		typ = Nor
	case "xor":
		typ = Xor
	case "xnor":
		typ = Xnor
	case "not":
		typ = Not
	case "buf":
		typ = Buf
	default:
		return vlDef{}, fmt.Errorf("unsupported primitive %q", head[0])
	}
	var args []string
	for _, a := range strings.Split(line[lp+1:rp], ",") {
		a = strings.TrimSpace(a)
		if !vlIdentOK(a) {
			return vlDef{}, fmt.Errorf("bad connection %q in %q", a, line)
		}
		args = append(args, a)
	}
	if len(args) < 2 {
		return vlDef{}, fmt.Errorf("primitive %q needs an output and at least one input", line)
	}
	return vlDef{out: args[0], op: head[0], typ: typ, args: args[1:], line: lineNo}, nil
}

// vlIdentOK reports whether s is a plain scalar identifier.
func vlIdentOK(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == '$' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}
