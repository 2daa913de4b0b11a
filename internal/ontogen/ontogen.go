// Package ontogen generates synthetic concept ontologies calibrated to the
// SNOMED-CT statistics Arvanitis et al. report in Section 6.1: 296,433
// concepts, an average of 4.53 children per internal node, 9.78 Dewey path
// addresses per concept and an average path length of 14.1.
//
// Real SNOMED-CT cannot ship with this repository (UMLS licensing), and the
// algorithms under test touch the ontology only through its DAG structure;
// the generator therefore reproduces the structural parameters that drive
// algorithmic cost — size, depth, branching, and multi-parent path
// multiplicity — rather than medical content. Concept names come from a
// deterministic pseudo-medical vocabulary so the NLP pipeline has terms,
// synonyms and abbreviations to work with.
//
// Construction is level-based: level sizes follow a geometric profile whose
// ratio is solved from NumConcepts and the depth; each node takes a primary
// parent among the previous level's designated internal nodes, and receives
// one extra is-a parent with a probability solved from the target path
// count, which multiplies path counts down the DAG — the mechanism behind
// SNOMED's ~9.78 paths per concept.
package ontogen

import (
	"fmt"
	"math"
	"math/rand"

	"conceptrank/internal/ontology"
)

// The SNOMED-CT shape every generated ontology is calibrated to (Section
// 6.1 of the paper): the hierarchy is snomedDepth levels deep below the
// root (the paper's average path length is 14.1), an internal node has 4.53
// children on average, and a concept has 9.78 Dewey addresses on average,
// which sets the extra-parent probability. A concept gets a synonym term
// with probability synonymProb, and also an abbreviation with probability
// abbrevProb.
const (
	snomedDepth     = 14
	avgChildren     = 4.53
	pathsPerConcept = 9.78
	synonymProb     = 0.4
	abbrevProb      = 0.15
)

// Config parameterizes a generated ontology. Zero values select the
// defaults (see Normalize).
type Config struct {
	// NumConcepts is the total concept count including the root
	// (paper: 296,433). Default 20,000 — laptop-scale.
	NumConcepts int
	// Seed drives all randomness; generation is deterministic per seed.
	Seed int64

	// depth is the number of levels below the root (default
	// snomedDepth); a test generates shallow ontologies with it.
	depth int
}

// Normalize fills defaults.
func (c Config) Normalize() Config {
	if c.NumConcepts <= 0 {
		c.NumConcepts = 20_000
	}
	if c.depth <= 0 {
		c.depth = snomedDepth
	}
	return c
}

// growthRatio solves sum_{d=0..D} g^d = n for g by bisection.
func growthRatio(n, depth int) float64 {
	target := float64(n)
	sum := func(g float64) float64 {
		s, p := 0.0, 1.0
		for d := 0; d <= depth; d++ {
			s += p
			p *= g
		}
		return s
	}
	lo, hi := 1.0001, 64.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if sum(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// Generate builds the ontology. It panics only on programmer error; all
// randomized structure is validated by Builder.Finalize.
func Generate(cfg Config) (*ontology.Ontology, error) {
	cfg = cfg.Normalize()
	r := rand.New(rand.NewSource(cfg.Seed))
	vocab := newVocab(r)

	g := growthRatio(cfg.NumConcepts, cfg.depth)
	// Level sizes L_d ~ g^d, rescaled to exactly NumConcepts-1 non-root
	// concepts.
	raw := make([]float64, cfg.depth+1)
	total := 0.0
	p := 1.0
	for d := 1; d <= cfg.depth; d++ {
		p *= g
		raw[d] = p
		total += p
	}
	sizes := make([]int, cfg.depth+1)
	remaining := cfg.NumConcepts - 1
	for d := 1; d <= cfg.depth; d++ {
		sizes[d] = int(math.Round(raw[d] / total * float64(cfg.NumConcepts-1)))
		if sizes[d] < 1 {
			sizes[d] = 1
		}
		remaining -= sizes[d]
	}
	// Distribute rounding remainder onto the deepest level.
	sizes[cfg.depth] += remaining
	if sizes[cfg.depth] < 1 {
		return nil, fmt.Errorf("ontogen: config yields empty bottom level (concepts=%d depth=%d)", cfg.NumConcepts, cfg.depth)
	}

	// The expected path count of a level-d concept is the product over its
	// ancestor levels of (1 + actual extra-parent rate at that level); a
	// level hosts extra parents only when its internal-parent pool (which
	// itself depends on p) has at least two nodes. Solve p numerically so
	// the corpus-wide average hits the target.
	poolFor := func(d int, p float64) int {
		n := int(math.Ceil(float64(sizes[d]) * (1 + p) / avgChildren))
		if n > sizes[d-1] {
			n = sizes[d-1]
		}
		if n < 1 {
			n = 1
		}
		return n
	}
	avgPaths := func(p float64) float64 {
		total := 1.0 // root
		mu := 1.0    // expected paths at the current level
		for d := 1; d <= cfg.depth; d++ {
			if pool := poolFor(d, p); pool >= 2 {
				// Collision retries miss with probability (1/pool)^4.
				miss := math.Pow(1/float64(pool), 4)
				mu *= 1 + p*(1-miss)
			}
			total += float64(sizes[d]) * mu
		}
		return total / float64(cfg.NumConcepts)
	}
	extraParentProb := 0.0
	if avgPaths(0.95) > pathsPerConcept {
		lo, hi := 0.0, 0.95
		for i := 0; i < 60; i++ {
			mid := (lo + hi) / 2
			if avgPaths(mid) < pathsPerConcept {
				lo = mid
			} else {
				hi = mid
			}
		}
		extraParentProb = (lo + hi) / 2
	} else {
		extraParentProb = 0.95
	}

	b := ontology.NewBuilder(vocab.rootName())
	levels := make([][]ontology.ConceptID, cfg.depth+1)
	levels[0] = []ontology.ConceptID{b.Root()}
	for d := 1; d <= cfg.depth; d++ {
		parents := levels[d-1]
		// Designated internal parents of the previous level. Extra edges
		// add (1+p) children per node on average, so widen the pool to keep
		// the mean child count of internal nodes at the configured target.
		nInternal := int(math.Ceil(float64(sizes[d]) * (1 + extraParentProb) / avgChildren))
		if nInternal > len(parents) {
			nInternal = len(parents)
		}
		if nInternal < 1 {
			nInternal = 1
		}
		internal := parents[:nInternal]
		level := make([]ontology.ConceptID, 0, sizes[d])
		for i := 0; i < sizes[d]; i++ {
			name, syns := vocab.concept(r, synonymProb, abbrevProb)
			c := b.AddConcept(name, syns...)
			primary := internal[r.Intn(len(internal))]
			b.MustAddEdge(primary, c)
			if len(internal) > 1 && r.Float64() < extraParentProb {
				// Extra is-a parent within the same level keeps the
				// hierarchy's depth semantics intact while multiplying
				// path counts (the DAG-ness of SNOMED). Retry a few times
				// to dodge collisions with the primary parent.
				for attempt := 0; attempt < 4; attempt++ {
					second := internal[r.Intn(len(internal))]
					if second != primary {
						_ = b.AddEdge(second, c)
						break
					}
				}
			}
			level = append(level, c)
		}
		// Shuffle so the internal-node prefix of the next level is a random
		// subset rather than the first-created nodes.
		r.Shuffle(len(level), func(i, j int) { level[i], level[j] = level[j], level[i] })
		levels[d] = level
	}
	return b.Finalize()
}
