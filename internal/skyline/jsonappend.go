package skyline

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// This file holds the append-based JSON primitives behind the /explore
// line encoder and JSONFloat. They reproduce encoding/json's output
// byte for byte (the differential and fuzz tests in jsonappend_test.go
// diff them against json.Marshal), so a line encoded here is
// indistinguishable from one encoded by reflection, minus the
// per-value allocations.

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, escaped exactly
// as json.Marshal escapes it (HTML escaping on): the quote and
// backslash, control bytes (\b \f \n \r \t by name, the rest as
// \u00XX), the HTML-sensitive <, > and &, each byte of invalid UTF-8
// as the replacement character U+FFFD, and the JavaScript line
// terminators U+2028 and U+2029.
//
//reprolint:hotpath
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends f the way JSONFloat marshals it: null for
// ±Inf and NaN, otherwise encoding/json's float64 format, which is the
// shortest round-tripping decimal in 'f' notation for magnitudes in
// [1e-6, 1e21) and in 'e' notation outside it, with a two-digit
// negative exponent trimmed (1e-07 becomes 1e-7).
//
//reprolint:hotpath
func appendJSONFloat(dst []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	// An 'e' number always ends in a sign and at least two exponent
	// digits, so its last four bytes are its own.
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}
