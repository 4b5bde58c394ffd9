// Package crc models the cyclic-redundancy-check hashing hardware that
// AxMemo uses to compress an arbitrary-size stream of memoization inputs
// into a small fixed-size lookup-table tag (ISCA'19 §3.1, Fig. 3).
//
// Production hashes with one functional engine, Slicing8, in both the
// hardware memoization unit (internal/memo) and the software-LUT
// baseline (internal/softmemo).  The simulator charges Table 4's
// absorption rate whichever engine computes a digest, so the paper's two
// hardware designs — the bit-serial unit and the byte-parallel table
// unit of Fig. 3 — live in this package's tests as reference models that
// Slicing8 is checked against.  The software baseline's instruction cost
// is modelled by softmemo.CRCInsnsPerByte.
package crc

import "fmt"

// Params describes a reflected CRC algorithm.  All AxMemo CRCs are
// reflected (least-significant-bit first), matching the common hardware
// realizations of CRC-16/ARC, CRC-32 (IEEE 802.3) and CRC-64/XZ.
type Params struct {
	// Width is the register width in bits (16, 32 or 64).
	Width uint
	// Poly is the reflected generator polynomial.
	Poly uint64
	// Init is the initial register value.
	Init uint64
	// XorOut is XORed into the register to produce the final digest.
	XorOut uint64
	// Name identifies the algorithm in diagnostics.
	Name string
}

// Standard parameter sets.  Check values ("123456789") are asserted in the
// package tests against the published catalogue values.
var (
	// CRC16 is CRC-16/ARC: poly 0x8005 (reflected 0xA001).
	CRC16 = Params{Width: 16, Poly: 0xA001, Init: 0, XorOut: 0, Name: "CRC-16/ARC"}
	// CRC32 is the IEEE 802.3 CRC-32 used throughout the paper's
	// evaluation ("32-bit CRC is generally large enough to avoid
	// collision", §6).
	CRC32 = Params{Width: 32, Poly: 0xEDB88320, Init: 0xFFFFFFFF, XorOut: 0xFFFFFFFF, Name: "CRC-32/IEEE"}
	// CRC64 is CRC-64/XZ (reflected ECMA-182).
	CRC64 = Params{Width: 64, Poly: 0xC96C5795D7870F42, Init: ^uint64(0), XorOut: ^uint64(0), Name: "CRC-64/XZ"}
)

// ByWidth returns the standard parameter set for a register width.
func ByWidth(width uint) (Params, error) {
	switch width {
	case 16:
		return CRC16, nil
	case 32:
		return CRC32, nil
	case 64:
		return CRC64, nil
	default:
		return Params{}, fmt.Errorf("crc: unsupported width %d (want 16, 32 or 64)", width)
	}
}

// mask returns the width-bit all-ones mask for p.
func (p Params) mask() uint64 {
	if p.Width >= 64 {
		return ^uint64(0)
	}
	return (1 << p.Width) - 1
}
