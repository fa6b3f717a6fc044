package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteVerilog emits the netlist as a structural Verilog module using
// primitive gates (and/or/nand/nor/xor/xnor/not/buf) and a ternary
// assign for MUXes. Signal names are sanitized into legal Verilog
// identifiers (original names survive when already legal). The module
// is synthesizable and equivalent to the netlist; hardware-security
// tool flows commonly expect this format alongside .bench.
func (n *Netlist) WriteVerilog(w io.Writer) error {
	bw := bufio.NewWriter(w)
	san := n.verilogNames()

	fmt.Fprintf(bw, "// generated from netlist %q\n", n.Name)
	fmt.Fprintf(bw, "module %s (\n", sanitizeIdent(n.Name))
	ports := make([]string, 0, len(n.Inputs)+len(n.Outputs))
	for _, id := range n.Inputs {
		ports = append(ports, "  input wire "+san[id])
	}
	outPort := make(map[int]string, len(n.Outputs))
	for i, id := range n.Outputs {
		name := fmt.Sprintf("po%d_%s", i, san[id])
		outPort[i] = name
		ports = append(ports, "  output wire "+name)
	}
	fmt.Fprintf(bw, "%s\n);\n\n", strings.Join(ports, ",\n"))

	// Internal wires.
	for id := range n.Gates {
		if n.Gates[id].Type == Input {
			continue
		}
		fmt.Fprintf(bw, "  wire %s;\n", san[id])
	}
	fmt.Fprintln(bw)

	order, err := n.TopoOrder()
	if err != nil {
		return err
	}
	inst := 0
	for _, id := range order {
		g := &n.Gates[id]
		args := make([]string, len(g.Fanin))
		for i, f := range g.Fanin {
			args[i] = san[f]
		}
		switch g.Type {
		case Input:
			continue
		case Const0:
			fmt.Fprintf(bw, "  assign %s = 1'b0;\n", san[id])
		case Const1:
			fmt.Fprintf(bw, "  assign %s = 1'b1;\n", san[id])
		case Mux:
			fmt.Fprintf(bw, "  assign %s = %s ? %s : %s;\n", san[id], args[0], args[2], args[1])
		case Not:
			fmt.Fprintf(bw, "  not U%d (%s, %s);\n", inst, san[id], args[0])
			inst++
		case Buf:
			fmt.Fprintf(bw, "  buf U%d (%s, %s);\n", inst, san[id], args[0])
			inst++
		default:
			prim := strings.ToLower(g.Type.String())
			fmt.Fprintf(bw, "  %s U%d (%s, %s);\n", prim, inst, san[id], strings.Join(args, ", "))
			inst++
		}
	}
	fmt.Fprintln(bw)
	for i, id := range n.Outputs {
		fmt.Fprintf(bw, "  assign %s = %s;\n", outPort[i], san[id])
	}
	fmt.Fprintln(bw, "endmodule")
	return bw.Flush()
}

// verilogNames maps gate IDs to unique legal Verilog identifiers.
func (n *Netlist) verilogNames() []string {
	names := make([]string, len(n.Gates))
	used := make(map[string]bool, len(n.Gates))
	for id := range n.Gates {
		base := sanitizeIdent(n.Gates[id].Name)
		name := base
		for i := 2; used[name]; i++ {
			name = fmt.Sprintf("%s_%d", base, i)
		}
		used[name] = true
		names[id] = name
	}
	return names
}

// sanitizeIdent turns an arbitrary signal name into a legal Verilog
// identifier.
func sanitizeIdent(s string) string {
	if s == "" {
		return "sig"
	}
	var sb strings.Builder
	for _, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if ok {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	out := sb.String()
	if out[0] >= '0' && out[0] <= '9' {
		out = "n" + out
	}
	switch out {
	case "module", "input", "output", "wire", "assign", "endmodule", "not", "buf", "and", "or", "nand", "nor", "xor", "xnor":
		out = out + "_w"
	}
	return out
}
