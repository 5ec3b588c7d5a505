package plot

import (
	"math"
	"strconv"
)

// This file holds the append-based primitives behind AppendSVG. They
// reproduce the fmt verbs the renderers were first written with byte
// for byte (svgappend_test.go diffs them against strconv, and
// oracle_test.go diffs whole documents against the fmt-based
// renderers), minus fmt's per-value allocations and strconv's
// multiprecision path for fixed-precision floats.

// pow10 holds the exact scale factors appendFixed supports.
var pow10 = [...]float64{1, 10, 100, 1000}

// appendFixed appends v with prec digits after the decimal point,
// byte-identical to strconv.AppendFloat(dst, v, 'f', prec, 64) (and so
// to fmt's %.<prec>f). strconv formats 'f' at a fixed precision on its
// multiprecision path; this takes n = floor(|v|·10^prec) in float64
// and decides the rounding of the exact product |v|·10^prec from the
// sign of one fused multiply-add, which rounds once and so keeps the
// sign of the exact difference. It falls back to strconv for NaN and
// ±Inf, for prec outside 0..3, when |v|·10^prec ≥ 2^52 (there n+0.5
// is no longer exact), and on an exact tie, where strconv rounds half
// to even.
//
//reprolint:hotpath
func appendFixed(dst []byte, v float64, prec int) []byte {
	if prec < 0 || prec >= len(pow10) {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	p := pow10[prec]
	a := math.Abs(v)
	// The negated test also sends NaN and +Inf to strconv.
	if !(a*p < 1<<52) {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	// a·p may round up to the next integer; floor then overshoots the
	// exact floor by one, but the exact product is then within half an
	// ulp of that integer, so it also rounds to it: the digits agree.
	n := math.Floor(a * p)
	d := math.FMA(a, p, -(n + 0.5))
	if d == 0 {
		return strconv.AppendFloat(dst, v, 'f', prec, 64)
	}
	m := uint64(n)
	if d > 0 {
		m++
	}
	if math.Signbit(v) {
		dst = append(dst, '-')
	}
	unit := uint64(p)
	dst = strconv.AppendUint(dst, m/unit, 10)
	if prec == 0 {
		return dst
	}
	dst = append(dst, '.')
	frac := m % unit
	for unit /= 10; unit > 0; unit /= 10 {
		dst = append(dst, byte('0'+frac/unit))
		frac %= unit
	}
	return dst
}

// appendEscaped appends s escaped for SVG element content and
// attribute values: &, <, > and " become entities; every other byte,
// invalid UTF-8 included, passes through.
//
//reprolint:hotpath
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		var ent string
		switch s[i] {
		case '&':
			ent = "&amp;"
		case '<':
			ent = "&lt;"
		case '>':
			ent = "&gt;"
		case '"':
			ent = "&quot;"
		default:
			continue
		}
		dst = append(dst, s[start:i]...)
		dst = append(dst, ent...)
		start = i + 1
	}
	return append(dst, s[start:]...)
}

const hexDigits = "0123456789abcdef"

// appendHexByte appends v as two lower-case hex digits (%02x); v is a
// colour channel in 0..255.
func appendHexByte(dst []byte, v int) []byte {
	return append(dst, hexDigits[v>>4&0xF], hexDigits[v&0xF])
}

// appendTick appends a compact axis tick label: "0", e-notation for
// magnitudes of 10^6 and up or under 10^-3, whole numbers from 100,
// one decimal (dropped when it is 0) from 1, and two significant
// digits below 1.
func appendTick(dst []byte, v float64) []byte {
	av := math.Abs(v)
	switch {
	case v == 0:
		return append(dst, '0')
	case av >= 1e6 || av < 1e-3:
		return strconv.AppendFloat(dst, v, 'e', 0, 64)
	case av >= 100:
		return appendFixed(dst, v, 0)
	case av >= 1:
		n := len(dst)
		dst = appendFixed(dst, v, 1)
		if dst[len(dst)-1] == '0' {
			return appendFixed(dst[:n], v, 0)
		}
		return dst
	default:
		return strconv.AppendFloat(dst, v, 'g', 2, 64)
	}
}

// formatTick is appendTick as a string, for the ASCII renderers.
func formatTick(v float64) string { return string(appendTick(nil, v)) }
