// Package hot is the hotpathalloc fixture. The analyzer is
// annotation-driven, so package path does not matter; only functions
// marked //reprolint:hotpath are checked.
package hot

import (
	"fmt"
	"strconv"
)

type box struct{ v int }

func sink(x interface{})     { _ = x }
func sinkAll(...interface{}) {}
func observe(f func() int)   { _ = f }
func work()                  {}

var sharedBuf []int

// Combine is the caller-preallocates pattern: appends into a
// parameter are the documented contract, not a hidden allocation.
//
//reprolint:hotpath
func Combine(dst []int, src []int) []int {
	for _, v := range src {
		dst = append(dst, v)
	}
	return dst
}

// Grow shows every accepted capacity source.
//
//reprolint:hotpath
func Grow(n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	buf := sharedBuf[:0]
	buf = append(buf, n)
	sharedBuf = buf
	return out
}

func appendDigit(dst []byte, d int) []byte { return append(dst, byte('0'+d)) }

// Encode chains append-style helpers: reassigning through them keeps
// the caller's buffer evidence, exactly as append itself does. A
// buffer an append-style helper starts from nil has none.
//
//reprolint:hotpath
func Encode(dst []byte, n int) []byte {
	dst = appendDigit(dst, n)
	dst = strconv.AppendInt(dst, int64(n), 10)
	fresh := appendDigit(nil, n)
	fresh = append(fresh, '!') // want "append without capacity evidence"
	_ = fresh
	return append(dst, '\n')
}

// Leaky violates each rule once.
//
//reprolint:hotpath
func Leaky(n int, b box, pb *box) interface{} {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i) // want "append without capacity evidence"
	}
	label := fmt.Sprintf("n=%d", n) // want "fmt.Sprintf allocates its result"
	_ = label
	sink(b)               // want "argument converts concrete"
	sink(pb)              // ok: pointers are not boxed
	sinkAll(b, pb, n)     // ok: variadic ...any is the cold-format exemption
	var x interface{} = b // want "assignment converts concrete"
	_ = x
	_ = out
	return b // want "return converts concrete"
}

// Closures allows direct invocation but not escape or launch.
//
//reprolint:hotpath
func Closures(total int) func() int {
	func() { total++ }()                 // ok: IIFE compiles to a direct call
	defer func() { total-- }()           // ok: deferred IIFE
	go func() { total++ }()              // want "goroutine closure allocates on the hot path"
	f := func() int { return total }     // want "escaping closure allocates its capture environment"
	observe(func() int { return total }) // want "escaping closure allocates its capture environment"
	return f
}

// ColdPanic documents the one-time diagnostic exemption.
//
//reprolint:hotpath
func ColdPanic(n int) {
	if n < 0 {
		//reprolint:allow hotpathalloc one-shot diagnostic on the panic path, never reached in steady state
		panic(fmt.Sprintf("negative span width %d", n))
	}
}

// Unmarked functions may do whatever they like.
func Unmarked(n int) string {
	go work()
	return fmt.Sprint(n)
}
