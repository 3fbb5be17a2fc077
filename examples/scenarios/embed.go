// Package scenarios embeds the shipped scenario files, so a command can
// resolve one by name from any working directory
// (internal/scenario.Shipped).
package scenarios

import "embed"

// Files holds every shipped NAME.click, at the root.
//
//go:embed *.click
var Files embed.FS
