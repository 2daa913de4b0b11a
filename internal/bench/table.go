package bench

import (
	"fmt"
	"strings"
	"time"
)

// Table is one experiment output: the rows behind one of the paper's tables
// or figure panels.
type Table struct {
	ID     string // e.g. "fig7a"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string // free-form observations (e.g. shape checks)
}

// Add appends a row.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note appends an observation line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i := range t.Header {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, " %-*s |", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	b.WriteString("|")
	for i := range t.Header {
		b.WriteString(strings.Repeat("-", widths[i]+2))
		b.WriteString("|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	b.WriteString("\n")
	return b.String()
}

// ms renders a duration as milliseconds with sensible precision.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000)
}

// f2 renders a float with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// itoa is a tiny fmt helper.
func itoa(v int) string { return fmt.Sprintf("%d", v) }
