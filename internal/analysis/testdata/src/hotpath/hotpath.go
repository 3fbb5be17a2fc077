// Package hotpath exercises the hotpathalloc analyzer: every allocation
// class it knows, the self-append idiom it admits, and the allow escape
// hatch.
package hotpath

import "fmt"

type record struct {
	a, b uint64
}

// sink keeps values alive without interface boxing.
var sink record

// cold is unannotated: nothing in it is flagged.
func cold() []int {
	return make([]int, 8)
}

// hot trips every class the analyzer knows.
//
//dataplane:hotpath
func hot(buf []byte, m map[string]uint64, name string, n int) []byte {
	b := make([]byte, n) // want `make in hot path allocates`
	_ = b
	p := new(record) // want `new in hot path allocates`
	_ = p
	r := &record{a: 1} // want `&composite literal in hot path escapes`
	_ = r
	xs := []int{1, 2, 3} // want `slice literal in hot path allocates`
	_ = xs
	lut := map[int]int{1: 2} // want `map literal in hot path allocates`
	_ = lut
	m[name] = 1             // want `map write in hot path may allocate`
	other := append(buf, 1) // want `append into a different slice may grow on every call`
	_ = other
	_ = fmt.Sprintf("%d", n)  // want `fmt\.Sprintf in hot path allocates`
	_ = []byte(name)          // want `string conversion in hot path copies its bytes`
	_ = name + "!"            // want `string concatenation in hot path allocates`
	go func() {}()            // want `go statement in hot path`
	var boxed interface{} = n // want `value is boxed into interface`
	_ = boxed
	fn := func() { n++ } // want `closure captures "n" by reference`
	fn()
	buf = append(buf, 1) // self-append reuse: allowed
	buf = append(buf[:0], 2)
	return buf
}

// hotClean is annotated and allocation-free: no findings.
//
//dataplane:hotpath
func hotClean(buf []byte, v uint64) []byte {
	sink.a = v
	sink.b += v
	buf = append(buf, byte(v))
	return buf
}

// hotAllowed uses the escape hatch with a reason: suppressed.
//
//dataplane:hotpath
func hotAllowed(n int) {
	b := make([]byte, n) //dataplane:allow hotpathalloc fixture exception with a recorded reason
	_ = b
}

// hotBadAllow's escape hatch has no reason: the allow itself is
// diagnosed and the finding is NOT suppressed.
//
//dataplane:hotpath
//dataplane:allow hotpathalloc // want `needs a reason`
func hotBadAllow(n int) {
	b := make([]byte, n) // want `make in hot path allocates`
	_ = b
}

// hotMisspelt's directive is misspelt: vetdp reports it instead of
// leaving the function silently unchecked.
//
//dataplane:hotpth // want `unknown directive //dataplane:hotpth`
func hotMisspelt(n int) []byte {
	return make([]byte, n)
}

// retired carries a directive vetdp no longer knows.
//
//dataplane:cell // want `unknown directive //dataplane:cell`
type retired struct{ a uint64 }

// hotUnknownAllow's allow names no analyzer: it is reported and
// suppresses nothing.
//
//dataplane:hotpath
func hotUnknownAllow(n int) {
	b := make([]byte, n) //dataplane:allow hotpathaloc misspelt analyzer name // want `"hotpathaloc", which is not a vetdp analyzer` `make in hot path allocates`
	_ = b
}
