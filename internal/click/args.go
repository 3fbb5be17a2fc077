package click

import "strings"

// Args holds a declaration's configuration arguments, in Click style: a
// comma-separated list where each item is either positional ("64") or a
// keyword-value pair ("ROUTES 128000"). It has no accessors: the only
// reader is Decode, through the class's key table (keys.go), so no code
// can read a key its table does not declare.
type Args struct {
	Positional []string
	Keyword    map[string]string
}

// ParseArgs splits raw comma-separated argument strings into positional
// and keyword arguments. An item containing whitespace is treated as a
// keyword-value pair keyed by its upper-cased first word.
func ParseArgs(items []string) Args {
	a := Args{Keyword: make(map[string]string)}
	for _, it := range items {
		it = strings.TrimSpace(it)
		if it == "" {
			continue
		}
		if k, v, ok := strings.Cut(it, " "); ok {
			a.Keyword[strings.ToUpper(k)] = strings.TrimSpace(v)
			continue
		}
		a.Positional = append(a.Positional, it)
	}
	return a
}
