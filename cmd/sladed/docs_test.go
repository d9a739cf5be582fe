package main

import (
	"flag"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	slade "repro"
)

// TestDocsMatchBinary: the flag table of docs/OPERATIONS.md and the route
// table of docs/API.md list exactly what the binary registers, and neither
// the docs, nor this package's comment, nor the route list above
// service.NewHandler mention a flag or a route that does not exist.
func TestDocsMatchBinary(t *testing.T) {
	fs := flag.NewFlagSet("sladed", flag.ContinueOnError)
	if _, _, err := parseFlags(fs, nil); err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { flags["-"+f.Name] = true })

	svc := slade.NewService(slade.ServiceConfig{})
	defer svc.Close()
	slade.NewServiceHandler(svc)
	routes := map[string]bool{}
	var routePatterns []*regexp.Regexp
	for _, e := range svc.Stats().Endpoints {
		routes[e.Method+" "+e.Route] = true
		p := strings.ReplaceAll(regexp.QuoteMeta(e.Route), `\{id\}`, `[^/]+`)
		routePatterns = append(routePatterns, regexp.MustCompile("^"+p+"$"))
	}

	cases := []struct {
		name       string
		registered map[string]bool
		// table is the doc whose rows, matched by row, are the reference
		// list; row's first group is the documented name.
		table string
		row   *regexp.Regexp
		// mention finds candidate names anywhere in the scanned files;
		// exists says whether the binary has one.
		mention *regexp.Regexp
		exists  func(string) bool
		// foreign are names the docs rightly mention that belong to
		// another program.
		foreign []string
	}{
		{
			name: "flags", registered: flags,
			table:   "docs/OPERATIONS.md",
			row:     regexp.MustCompile("(?m)^\\| `(-[a-z0-9-]+)` \\|"),
			mention: regexp.MustCompile("(?m)(?:^|[\\s(])`?(-[a-z][a-z0-9-]+)"),
			exists:  func(name string) bool { return flags[name] },
			foreign: []string{"-race", "-run", "-bench", "-benchtime", "-short", "-matrix"}, // go test, sladesim
		},
		{
			name: "routes", registered: routes,
			table:   "docs/API.md",
			row:     regexp.MustCompile("(?m)^\\| `([A-Z]+)` \\| \\[`([^`]+)`\\]"),
			mention: regexp.MustCompile(`(/v1/[A-Za-z0-9_{}/-]*|/metrics\b)`),
			exists: func(path string) bool {
				path = strings.TrimRight(path, "/")
				for _, p := range routePatterns {
					if p.MatchString(path) {
						return true
					}
				}
				return false
			},
			foreign: []string{"/v1/bins"}, // the marketplace's route
		},
	}
	scanned := []string{
		"README.md", "docs/OPERATIONS.md", "docs/API.md", "docs/FORMATS.md", "docs/ARCHITECTURE.md",
		"cmd/sladed/main.go", "internal/service/api.go",
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			documented := map[string]bool{}
			for _, m := range tc.row.FindAllStringSubmatch(docText(t, tc.table), -1) {
				documented[strings.Join(m[1:], " ")] = true
			}
			if got, want := slices.Sorted(maps.Keys(documented)), slices.Sorted(maps.Keys(tc.registered)); !slices.Equal(got, want) {
				t.Errorf("%s documents\n  %s\nthe binary registers\n  %s", tc.table, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
			}
			for _, file := range scanned {
				for _, m := range tc.mention.FindAllStringSubmatch(docText(t, file), -1) {
					if name := m[1]; !slices.Contains(tc.foreign, name) && !tc.exists(name) {
						t.Errorf("%s mentions %s, which sladed does not have", file, name)
					}
				}
			}
		})
	}
}

// docText reads a file relative to the repository root and keeps what a
// reader takes as documentation: all of a Markdown file bar the paragraph
// of OPERATIONS.md that tells upgraders what was removed, and the comment
// lines of a Go file.
func docText(t *testing.T, rel string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", filepath.FromSlash(rel)))
	if err != nil {
		t.Fatal(err)
	}
	var keep []string
	if strings.HasSuffix(rel, ".go") {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "//") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	for _, para := range strings.Split(string(data), "\n\n") {
		if !strings.HasPrefix(para, "**Upgrading from") {
			keep = append(keep, para)
		}
	}
	return strings.Join(keep, "\n\n")
}
