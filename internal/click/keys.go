package click

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Row is a key-table row without its declaration type: the key, the Go
// type of its field, the interval a numeric value must lie in ("" accepts
// any value of the kind), and whether the row takes the class's bare
// arguments instead of "NAME value".
type Row struct {
	Name, Kind, Bounds string
	Positional         bool
}

// Key is one row of a declaration class's key table — the only place a
// grammar key is stated. A row names the key, says which field of the
// declaration T its value lands in (the field's type is the key's kind)
// and bounds it; Decode, Encode and scenario.Platform.Apply are loops
// over the table, so a key cannot be parsed but not rendered,
// range-checked in one place but not another, or silently ignored when
// misspelled. Element classes hand their table to Register; the tables
// of internal/scenario and internal/sweep are package-level values.
type Key[T any] struct {
	Row
	set    func(dst *T, text string) error // parse text into the field
	text   func(src *T) string             // the field's canonical text
	Assign func(dst, src *T)               // dst's field = src's
}

// NewKey declares a key of a kind the constructors below do not cover;
// parse's error completes "KEY value ...", text renders the value back.
func NewKey[T, V any](name, bounds string, at func(*T) *V, parse func(string) (V, error), text func(V) string) Key[T] {
	return Key[T]{
		Row: Row{Name: name, Kind: fmt.Sprintf("%T", *new(V)), Bounds: bounds},
		set: func(dst *T, s string) error {
			v, err := parse(s)
			if err != nil {
				return fmt.Errorf("%s %s %w", name, s, err)
			}
			*at(dst) = v
			return nil
		},
		text:   func(src *T) string { return text(*at(src)) },
		Assign: func(dst, src *T) { *at(dst) = *at(src) },
	}
}

// Positional marks k as the row that takes the class's bare arguments
// (joined by spaces) instead of "NAME value"; a table has at most one.
func Positional[T any](k Key[T]) Key[T] {
	k.Row.Positional = true
	return k
}

// String declares a key whose value is taken verbatim.
func String[T any](name string, at func(*T) *string) Key[T] {
	return NewKey(name, "", at, func(s string) (string, error) { return s, nil }, func(s string) string { return s })
}

// Bool declares a true/false key.
func Bool[T any](name string, at func(*T) *bool) Key[T] {
	return NewKey(name, "", at, func(s string) (bool, error) {
		b, err := strconv.ParseBool(s)
		if err != nil {
			return false, errors.New("is not a bool")
		}
		return b, nil
	}, strconv.FormatBool)
}

// Int, Uint and Float declare numeric keys. bounds is the accepted
// interval in mathematical notation — "[1,64]", "(0,1)", "[1000,)" — with
// an empty end unbounded, "[0,0]|[64,)" a union and "" accepting any
// value of the kind.
func Int[T any](name, bounds string, at func(*T) *int) Key[T] {
	return NewKey(name, bounds, at, bounded(bounds, strconv.Atoi, "an integer"), strconv.Itoa)
}

func Uint[T any](name, bounds string, at func(*T) *uint64) Key[T] {
	return NewKey(name, bounds, at, bounded(bounds, parseUint, "a uint64"), formatUint)
}

func Float[T any](name, bounds string, at func(*T) *float64) Key[T] {
	return NewKey(name, bounds, at, bounded(bounds, parseFinite, "a finite number"), formatFloat)
}

// Floats declares a key holding a space-separated list of numbers, each
// within bounds.
func Floats[T any](name, bounds string, at func(*T) *[]float64) Key[T] {
	return List(name, bounds, at, bounded(bounds, parseFinite, "a finite number"), formatFloat)
}

// List declares a key holding space-separated elements of one kind.
func List[T, V any](name, bounds string, at func(*T) *[]V, parse func(string) (V, error), text func(V) string) Key[T] {
	return NewKey(name, bounds, at, func(s string) ([]V, error) {
		var out []V
		for _, tok := range strings.Fields(s) {
			v, err := parse(tok)
			if err != nil {
				return nil, fmt.Errorf("element %s %w", tok, err)
			}
			out = append(out, v)
		}
		return out, nil
	}, func(vs []V) string {
		toks := make([]string, len(vs))
		for i, v := range vs {
			toks[i] = text(v)
		}
		return strings.Join(toks, " ")
	})
}

// bounded wraps a numeric parser with the interval check.
func bounded[V int | uint64 | float64](bounds string, parse func(string) (V, error), what string) func(string) (V, error) {
	return func(s string) (V, error) {
		v, err := parse(s)
		if err != nil {
			return v, errors.New("is not " + what)
		}
		if !within(float64(v), bounds) {
			return v, errors.New("outside " + bounds)
		}
		return v, nil
	}
}

// within reports whether v lies in one of the '|'-separated intervals:
// '[' and ']' include an end, '(' and ')' exclude it, an empty end is
// unbounded.
func within(v float64, bounds string) bool {
	if bounds == "" {
		return true
	}
	if first, rest, union := strings.Cut(bounds, "|"); union {
		return within(v, first) || within(v, rest)
	}
	lo, hi, _ := strings.Cut(bounds[1:len(bounds)-1], ",")
	if b, err := strconv.ParseFloat(lo, 64); err == nil && (v < b || v == b && bounds[0] == '(') {
		return false
	}
	if b, err := strconv.ParseFloat(hi, 64); err == nil && (v > b || v == b && bounds[len(bounds)-1] == ')') {
		return false
	}
	return true
}

func parseUint(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) }
func formatUint(v uint64) string         { return strconv.FormatUint(v, 10) }
func formatFloat(v float64) string       { return strconv.FormatFloat(v, 'g', -1, 64) }

// parseFinite rejects NaN and ±Inf: no configuration knob means them, and
// they would poison downstream arithmetic and break render/parse
// round-trips.
func parseFinite(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, errors.New("not finite")
	}
	return f, nil
}

// KeyNames lists a table's keys in canonical order — the order Encode
// emits and error messages use.
func KeyNames[T any](keys []Key[T]) []string {
	names := make([]string, len(keys))
	for i, k := range keys {
		names[i] = k.Name
	}
	return names
}

// Decode reads one declaration's arguments into dst through the class's
// key table. Anything the table does not declare — a misspelled key, a
// bare argument where no row is Positional — is an error listing the
// known keys, as is a value its kind cannot parse or its bounds exclude.
func Decode[T any](class string, keys []Key[T], args Args, dst *T) error {
	pos := slices.IndexFunc(keys, func(k Key[T]) bool { return k.Positional })
	known := func() string {
		if len(keys) == 0 {
			return class + " takes no arguments"
		}
		names := KeyNames(keys)
		if pos >= 0 {
			names[pos] += " (written bare)"
		}
		return "known keys: " + strings.Join(names, " ")
	}
	if len(args.Positional) > 0 && pos < 0 {
		return fmt.Errorf("%s: positional argument %q (%s)", class, args.Positional[0], known())
	}
	var unknown []string
	for name := range args.Keyword {
		if !slices.ContainsFunc(keys, func(k Key[T]) bool { return k.Name == name && !k.Positional }) {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		slices.Sort(unknown)
		return fmt.Errorf("%s: unknown key %s (%s)", class, strings.Join(unknown, ", "), known())
	}
	for i, k := range keys {
		v, ok := args.Keyword[k.Name]
		if i == pos {
			v, ok = strings.Join(args.Positional, " "), len(args.Positional) > 0
		}
		if ok {
			if err := k.set(dst, v); err != nil {
				return fmt.Errorf("%s: %w", class, err)
			}
		}
	}
	return nil
}

// Encode renders a declaration's arguments as canonical "KEY VALUE"
// strings in table order: the rows in the named mask plus, when def is
// non-nil, every row whose value differs from def's.
func Encode[T any](keys []Key[T], src, def *T, named uint64) []string {
	var out []string
	for i, k := range keys {
		text := k.text(src)
		if named>>i&1 == 1 || def != nil && text != k.text(def) {
			out = append(out, k.Name+" "+text)
		}
	}
	return out
}
