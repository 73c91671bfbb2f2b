// Package specs embeds the checked-in workload specs: one file per program
// of the paper's Table 3, which is the only definition of those nine
// benchmarks, plus the example stressors beside them.
package specs

import "embed"

// FS holds every *.json spec in this directory.
//
//go:embed *.json
var FS embed.FS
