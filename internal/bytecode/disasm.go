package bytecode

import (
	"fmt"
	"sort"
	"strings"

	"axmemo/internal/ir"
)

// Disassemble renders the compiled program as a human-readable listing,
// functions in name order (entry first).
func (p *Program) Disassemble() string {
	var sb strings.Builder
	names := make([]string, 0, len(p.Funcs))
	for name := range p.Funcs {
		if p.Entry != nil && name == p.Entry.IR.Name {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if p.Entry != nil {
		names = append([]string{p.Entry.IR.Name}, names...)
	}
	for i, name := range names {
		if i > 0 {
			sb.WriteByte('\n')
		}
		p.Funcs[name].disasm(&sb)
	}
	return sb.String()
}

// Disassemble renders one compiled function.
func (f *Func) disasm(sb *strings.Builder) {
	fmt.Fprintf(sb, "func %s: %d insns, %d blocks, %d regs\n",
		f.IR.Name, len(f.Insns), len(f.BlockPC), f.IR.NumRegs())
	// blockAt maps a pc to the source block starting there (labels).
	blockAt := make(map[int32]int, len(f.BlockPC))
	for idx, pc := range f.BlockPC {
		blockAt[pc] = idx
	}
	for pc := range f.Insns {
		if idx, ok := blockAt[int32(pc)]; ok {
			fmt.Fprintf(sb, "  b%d:\n", idx)
		}
		bi := &f.Insns[pc]
		fmt.Fprintf(sb, "  %4d  %-14s %-26s ; ir=%d\n",
			pc, bi.Op.String(), bi.operands(), bi.Src.SID)
	}
}

// operands renders the instruction's meaningful operand fields.
func (bi *Insn) operands() string {
	switch {
	case bi.Op == Nop:
		return ""
	case bi.Op == Const:
		return fmt.Sprintf("r%d, %#x", bi.Dst, bi.Imm)
	case bi.Op == Mov:
		return fmt.Sprintf("r%d, r%d", bi.Dst, bi.A)
	case bi.Op >= FirstBin && bi.Op <= LastBin:
		return fmt.Sprintf("r%d, r%d, r%d", bi.Dst, bi.A, bi.B)
	case bi.Op >= FirstUn && bi.Op <= LastUn, bi.Op >= FirstCvt && bi.Op <= LastCvt:
		return fmt.Sprintf("r%d, r%d", bi.Dst, bi.A)
	case bi.Op == Load:
		return fmt.Sprintf("r%d, [r%d+%d].%s", bi.Dst, bi.A, bi.Imm, bi.Type)
	case bi.Op == Store:
		return fmt.Sprintf("[r%d+%d].%s, r%d", bi.A, bi.Imm, bi.Type, bi.B)
	case bi.Op == Jmp:
		return fmt.Sprintf("@%d", bi.T0)
	case bi.Op == Br:
		suffix := ""
		if bi.Backward {
			suffix = " <backward>"
		}
		return fmt.Sprintf("r%d, @%d, @%d%s", bi.A, bi.T0, bi.T1, suffix)
	case bi.Op == Ret:
		return regList(bi.Args)
	case bi.Op == Call:
		return fmt.Sprintf("%s = %s(%s)", regList(bi.Rets), bi.Callee.IR.Name, regList(bi.Args))
	case bi.Op == LdCRC:
		return fmt.Sprintf("r%d, [r%d+%d].%s, lut%d, trunc%d", bi.Dst, bi.A, bi.Imm, bi.Type, bi.LUT, bi.Trunc)
	case bi.Op == RegCRC:
		return fmt.Sprintf("r%d.%s, lut%d, trunc%d", bi.A, bi.Type, bi.LUT, bi.Trunc)
	case bi.Op == Lookup:
		return fmt.Sprintf("r%d, r%d, lut%d", bi.Dst, bi.Hit, bi.LUT)
	case bi.Op == Update:
		return fmt.Sprintf("r%d, lut%d", bi.A, bi.LUT)
	case bi.Op == Invalidate:
		return fmt.Sprintf("lut%d", bi.LUT)
	case bi.Op == FallbackOp:
		return fmt.Sprintf("%s.%s", bi.Src.Op, bi.Src.Type)
	}
	return ""
}

func regList(rs []ir.Reg) string {
	if len(rs) == 0 {
		return "()"
	}
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = fmt.Sprintf("r%d", r)
	}
	return strings.Join(parts, ", ")
}
