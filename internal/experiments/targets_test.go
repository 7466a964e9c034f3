package experiments

import "testing"

// TestTargetsTable: ids and file names are unique, and every target draws
// exactly one figure per file it names.
func TestTargetsTable(t *testing.T) {
	s := quickSettings(150)
	s.Duration = 2
	seen := map[string]bool{}
	for _, tg := range Targets {
		for _, name := range append([]string{tg.ID}, tg.Files...) {
			if seen[name] {
				t.Fatalf("%s: %q appears twice in the table", tg.ID, name)
			}
			seen[name] = true
		}
		figs, _, err := tg.Draw(s)
		if err != nil {
			t.Fatalf("%s: %v", tg.ID, err)
		}
		if len(figs) != len(tg.Files) {
			t.Errorf("%s drew %d figures for %d files", tg.ID, len(figs), len(tg.Files))
		}
	}
}
