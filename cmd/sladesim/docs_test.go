package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsMatchSladesim: every -flag on a line of the README, docs/*.md or
// the verify skill that mentions sladesim is one sladesim declares, so the
// docs cannot name a flag the binary lacks.
func TestDocsMatchSladesim(t *testing.T) {
	fs := flag.NewFlagSet("sladesim", flag.ContinueOnError)
	if _, err := parseFlags(fs, nil); err != nil {
		t.Fatal(err)
	}
	root := filepath.Join("..", "..")
	files, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, filepath.Join(root, "README.md"), filepath.Join(root, ".claude", "skills", "verify", "SKILL.md"))
	mention := regexp.MustCompile("(?:^|[\\s(`])-([a-z][a-z0-9-]*)")
	checked := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if !strings.Contains(line, "sladesim") {
				continue
			}
			for _, m := range mention.FindAllStringSubmatch(line, -1) {
				checked++
				if fs.Lookup(m[1]) == nil {
					t.Errorf("%s:%d mentions -%s, which sladesim does not declare:\n%s", file, i+1, m[1], line)
				}
			}
		}
	}
	if checked == 0 {
		t.Error("no sladesim flag found in the docs; is the scan broken?")
	}
}
