package traceview

import (
	"io"
	"strings"
	"testing"
)

// FuzzTraceviewParse feeds arbitrary event logs to Parse, seeded with
// the test fixture and its single lines. Parsing never fails on
// content, and the analyses adaptcheck -mode trace runs on a parsed
// log — critical paths, folded stacks, stragglers, the report — never
// panic.
func FuzzTraceviewParse(f *testing.F) {
	f.Add(fixture)
	for _, line := range strings.Split(fixture, "\n") {
		f.Add(line)
	}
	f.Add(`{"kind":"span","span":1,"parent":2}` + "\n" + `{"kind":"span","span":2,"parent":1}`)
	f.Add(`{"kind":"span","span":3,"parent":3,"dur_ms":-5}`)

	f.Fuzz(func(t *testing.T, log string) {
		a, err := Parse(strings.NewReader(log))
		if err != nil {
			t.Fatalf("Parse failed on content: %v", err)
		}
		if a.Lines < a.Skipped {
			t.Fatalf("%d lines but %d skipped", a.Lines, a.Skipped)
		}
		for _, root := range a.Roots {
			CriticalPath(root)
		}
		if err := WriteFolded(io.Discard, a); err != nil {
			t.Fatal(err)
		}
		Stragglers(a)
		if err := WriteReport(io.Discard, a, 3); err != nil {
			t.Fatal(err)
		}
	})
}
