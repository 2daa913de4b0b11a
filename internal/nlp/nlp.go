// Package nlp is the concept-extraction substrate of the reproduction: the
// paper links MIMIC-II clinical notes to SNOMED-CT with MetaMap after
// expanding abbreviations from a public list, and drops negated concepts
// (Section 6.1). This package provides the equivalent local pipeline:
//
//   - a clinical-text tokenizer,
//   - dictionary-based abbreviation expansion,
//   - a NegEx-style negation detector (trigger phrases scoped to a token
//     window, terminated by conjunctions or sentence ends),
//   - a longest-match dictionary concept mapper built from the ontology's
//     terms and synonyms.
//
// Annotate runs the full pipeline and returns concept mentions with
// polarity; ConceptSet keeps only positive mentions, which is what the
// experiments index.
package nlp

import (
	"sort"
	"strings"

	"conceptrank/internal/ontology"
)

// Token is one lowercased word with its position in the token stream.
type Token struct {
	Text string
	Pos  int
}

// Tokenize splits text into lowercase word tokens. Digits stay inside
// tokens ("type 17" tokenizes as ["type","17"]); punctuation becomes the
// sentence-boundary token ".", which the negation scoper consumes.
func Tokenize(text string) []Token {
	var tokens []Token
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			tokens = append(tokens, Token{Text: cur.String(), Pos: len(tokens)})
			cur.Reset()
		}
	}
	for _, r := range text {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			cur.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			cur.WriteRune(r + ('a' - 'A'))
		case r == '.' || r == ';' || r == ':' || r == ',':
			flush()
			tokens = append(tokens, Token{Text: ".", Pos: len(tokens)})
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// Abbreviations maps lowercase abbreviation tokens to their expansions
// (multi-token, lowercase). It plays the role of the paper's "public list
// of medical abbreviations".
type Abbreviations map[string]string

// BuildAbbreviations scans an ontology for generated abbreviation synonyms
// (all-caps + digits, see internal/ontogen) and maps each to the concept's
// primary term.
func BuildAbbreviations(o *ontology.Ontology) Abbreviations {
	a := make(Abbreviations)
	for c := 0; c < o.NumConcepts(); c++ {
		id := ontology.ConceptID(c)
		for _, syn := range o.Synonyms(id) {
			if isAbbrevToken(syn) {
				a[strings.ToLower(syn)] = strings.ToLower(o.Name(id))
			}
		}
	}
	return a
}

func isAbbrevToken(s string) bool {
	if s == "" || strings.ContainsRune(s, ' ') {
		return false
	}
	i := 0
	for i < len(s) && s[i] >= 'A' && s[i] <= 'Z' {
		i++
	}
	if i == 0 || i == len(s) {
		return false
	}
	for ; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// Expand replaces abbreviation tokens with their expansions' tokens.
func (a Abbreviations) Expand(tokens []Token) []Token {
	out := make([]Token, 0, len(tokens))
	for _, t := range tokens {
		if exp, ok := a[t.Text]; ok {
			for _, w := range strings.Fields(exp) {
				out = append(out, Token{Text: w, Pos: len(out)})
			}
			continue
		}
		out = append(out, Token{Text: t.Text, Pos: len(out)})
	}
	return out
}

// negation triggers and scope terminators, NegEx-style.
var (
	negationTriggers = map[string]bool{
		"no": true, "denies": true, "without": true, "negative": true,
		"absent": true, "not": true,
	}
	// multi-word triggers checked as (first word, second word) pairs
	negationBigrams = map[[2]string]bool{
		{"absence", "of"}: true, {"free", "of"}: true, {"rules", "out"}: true,
		{"ruled", "out"}: true, {"no", "evidence"}: true,
	}
	scopeTerminators = map[string]bool{
		".": true, "but": true, "however": true, "except": true,
		"although": true,
	}
	negationWindow = 7 // tokens after the trigger
)

// NegatedSpans returns, per token index, whether it lies inside a negation
// scope.
func NegatedSpans(tokens []Token) []bool {
	neg := make([]bool, len(tokens))
	for i := 0; i < len(tokens); i++ {
		trigger := negationTriggers[tokens[i].Text]
		if !trigger && i+1 < len(tokens) {
			trigger = negationBigrams[[2]string{tokens[i].Text, tokens[i+1].Text}]
		}
		if !trigger {
			continue
		}
		for j := i + 1; j <= i+negationWindow && j < len(tokens); j++ {
			if scopeTerminators[tokens[j].Text] {
				break
			}
			neg[j] = true
		}
	}
	return neg
}

// Mention is one recognized concept occurrence.
type Mention struct {
	Concept    ontology.ConceptID
	Start, End int // token span [Start, End)
	Negated    bool
}

// Matcher performs longest-match dictionary lookup of multi-token terms.
// Build one per ontology; it is safe for concurrent use once built.
type Matcher struct {
	o    *ontology.Ontology
	abbr Abbreviations
	root *trieNode
}

type trieNode struct {
	children map[string]*trieNode
	concept  ontology.ConceptID
	terminal bool
}

// NewMatcher indexes every primary term and synonym of the ontology
// (lowercased, tokenized) into a token trie, and builds the abbreviation
// table.
func NewMatcher(o *ontology.Ontology) *Matcher {
	m := &Matcher{o: o, abbr: BuildAbbreviations(o), root: &trieNode{}}
	for c := 0; c < o.NumConcepts(); c++ {
		id := ontology.ConceptID(c)
		m.addTerm(o.Name(id), id)
		for _, syn := range o.Synonyms(id) {
			if !isAbbrevToken(syn) { // abbreviations match via expansion
				m.addTerm(syn, id)
			}
		}
	}
	return m
}

func (m *Matcher) addTerm(term string, c ontology.ConceptID) {
	words := Tokenize(term)
	if len(words) == 0 {
		return
	}
	node := m.root
	for _, w := range words {
		if node.children == nil {
			node.children = make(map[string]*trieNode)
		}
		next := node.children[w.Text]
		if next == nil {
			next = &trieNode{}
			node.children[w.Text] = next
		}
		node = next
	}
	node.terminal = true
	node.concept = c
}

// Abbreviations exposes the abbreviation table used by the pipeline.
func (m *Matcher) Abbreviations() Abbreviations { return m.abbr }

// Annotate runs tokenize -> abbreviation expansion -> negation scoping ->
// longest-match concept mapping over the text.
func (m *Matcher) Annotate(text string) []Mention {
	tokens := m.abbr.Expand(Tokenize(text))
	neg := NegatedSpans(tokens)
	var mentions []Mention
	for i := 0; i < len(tokens); {
		node := m.root
		bestEnd := -1
		var bestConcept ontology.ConceptID
		for j := i; j < len(tokens); j++ {
			next := node.children[tokens[j].Text]
			if next == nil {
				break
			}
			node = next
			if node.terminal {
				bestEnd = j + 1
				bestConcept = node.concept
			}
		}
		if bestEnd < 0 {
			i++
			continue
		}
		negated := false
		for j := i; j < bestEnd; j++ {
			if neg[j] {
				negated = true
				break
			}
		}
		mentions = append(mentions, Mention{Concept: bestConcept, Start: i, End: bestEnd, Negated: negated})
		i = bestEnd
	}
	return mentions
}

// ConceptSet returns the sorted, deduplicated set of positively mentioned
// concepts — the paper's document representation ("we only consider
// concepts with positive polarity").
func (m *Matcher) ConceptSet(text string) []ontology.ConceptID {
	seen := make(map[ontology.ConceptID]bool)
	for _, mn := range m.Annotate(text) {
		if !mn.Negated {
			seen[mn.Concept] = true
		}
	}
	out := make([]ontology.ConceptID, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
