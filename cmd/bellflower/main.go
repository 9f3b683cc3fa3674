// Command bellflower matches a personal schema against a repository of XML
// schemas and prints the ranked mappings, optionally rewriting an XPath
// query over the best mapping.
//
// The repository is either loaded from a directory of .xsd/.dtd files or
// generated synthetically at a chosen scale:
//
//	bellflower -personal 'book(title,author)' -repo ./schemas -topn 5
//	bellflower -personal 'address(name,email)' -synthetic 9759 -variant medium
//	bellflower -personal 'book(title,author)' -repo ./schemas \
//	    -query '/book[title="Iliad"]/author'
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"bellflower"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bellflower:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bellflower", flag.ContinueOnError)
	var (
		personalSpec = fs.String("personal", "", "personal schema spec, e.g. 'book(title,author)'")
		personalFile = fs.String("personal-file", "", "personal schema from an .xsd or .dtd file (first tree)")
		repoDir      = fs.String("repo", "", "directory of .xsd/.dtd files to load as the repository")
		synthetic    = fs.Int("synthetic", 0, "generate a synthetic repository with this many nodes")
		seed         = fs.Int64("seed", 1, "seed for the synthetic repository")
		variant      = fs.String("variant", "medium", "clustering variant: small|medium|large|tree")
		delta        = fs.Float64("delta", 0.75, "objective function threshold δ")
		alpha        = fs.Float64("alpha", 0.5, "objective weight α (name vs path similarity)")
		kconst       = fs.Float64("k", 4, "path-length normalization constant K")
		minSim       = fs.Float64("minsim", 0.45, "element matcher candidate threshold")
		topN         = fs.Int("topn", 10, "print at most N mappings (0 = all)")
		queryStr     = fs.String("query", "", "XPath query over the personal schema to rewrite with the best mapping")
		partials     = fs.Bool("partials", false, "also report partial mappings from non-useful clusters")
		showStats    = fs.Bool("stats", false, "print efficiency counters")
		repoFile     = fs.String("repo-file", "", "load a repository saved with -save-repo")
		saveRepo     = fs.String("save-repo", "", "save the loaded/generated repository to this file and exit")
		agg          = fs.Bool("agglomerative", false, "use agglomerative clustering instead of k-means")
		structure    = fs.String("structure", "", "two-phase structure matcher: path|child|leaf")
		structWeight = fs.Float64("structure-weight", 0.5, "blend weight of the structure matcher")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	repo, err := loadRepository(*repoDir, *repoFile, *synthetic, *seed)
	if err != nil {
		return err
	}
	if *saveRepo != "" {
		f, err := os.Create(*saveRepo)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := bellflower.SaveRepository(f, repo); err != nil {
			return err
		}
		fmt.Printf("saved %d trees (%d nodes) to %s\n", repo.NumTrees(), repo.Len(), *saveRepo)
		return nil
	}
	personal, err := loadPersonal(*personalSpec, *personalFile)
	if err != nil {
		return err
	}
	st := repo.Stats()
	fmt.Printf("repository: %d trees, %d nodes\n", st.Trees, st.Nodes)

	opts := bellflower.DefaultOptions()
	opts.Threshold = *delta
	opts.Objective.Alpha = *alpha
	opts.Objective.K = *kconst
	opts.MinSim = *minSim
	opts.TopN = *topN
	opts.IncludePartials = *partials
	opts.Agglomerative = *agg
	if *structure != "" {
		sm, err := bellflower.NewStructureMatcher(*structure)
		if err != nil {
			return err
		}
		opts.StructureMatcher = sm
		opts.StructureWeight = *structWeight
	}
	switch *variant {
	case "small":
		opts.Variant = bellflower.VariantSmall
	case "medium":
		opts.Variant = bellflower.VariantMedium
	case "large":
		opts.Variant = bellflower.VariantLarge
	case "tree":
		opts.Variant = bellflower.VariantTree
	default:
		return fmt.Errorf("unknown variant %q", *variant)
	}

	m := bellflower.NewMatcher(repo)
	rep, err := m.Match(personal, opts)
	if err != nil {
		return err
	}
	fmt.Printf("found %d mappings with Δ >= %.2f (%v total)\n",
		len(rep.Mappings), *delta, rep.TotalTime().Round(time.Millisecond))
	for i, mp := range rep.Mappings {
		fmt.Printf("%3d. %s\n", i+1, bellflower.FormatMapping(personal, mp))
	}
	if *partials && len(rep.Partials) > 0 {
		fmt.Printf("partial mappings: %d (best Δ=%.3f, covering %d/%d nodes)\n",
			len(rep.Partials), rep.Partials[0].Score.Delta,
			rep.Partials[0].Covered, personal.Len())
	}
	if *showStats {
		fmt.Printf("mapping elements: %d\nclusters: %d (useful %d, avg %.1f elements)\n",
			rep.MappingElements, rep.Clusters, rep.UsefulClusters, rep.AvgElementsPerUsefulCluster)
		fmt.Printf("search space: %.0f, partial mappings generated: %d\n",
			rep.Counters.SearchSpace, rep.Counters.PartialMappings)
		fmt.Printf("times: match %v, cluster %v, generate %v\n",
			rep.MatchTime.Round(time.Millisecond),
			rep.ClusterTime.Round(time.Millisecond),
			rep.GenTime.Round(time.Millisecond))
	}
	if *queryStr != "" {
		if len(rep.Mappings) == 0 {
			return fmt.Errorf("no mapping available to rewrite the query")
		}
		out, err := m.RewriteQuery(*queryStr, personal, rep.Mappings[0])
		if err != nil {
			return err
		}
		fmt.Printf("query rewrite (best mapping):\n  %s\n  -> %s\n", *queryStr, out)
	}
	return nil
}

func loadPersonal(spec, file string) (*bellflower.Tree, error) {
	switch {
	case spec != "" && file != "":
		return nil, fmt.Errorf("use either -personal or -personal-file, not both")
	case spec != "":
		return bellflower.ParseSchema(spec)
	case file != "":
		trees, err := loadSchemaFile(file)
		if err != nil {
			return nil, err
		}
		return trees[0], nil
	default:
		return nil, fmt.Errorf("a personal schema is required (-personal or -personal-file)")
	}
}

func loadRepository(dir, file string, synthetic int, seed int64) (*bellflower.Repository, error) {
	sources := 0
	for _, set := range []bool{dir != "", file != "", synthetic > 0} {
		if set {
			sources++
		}
	}
	switch {
	case sources > 1:
		return nil, fmt.Errorf("use exactly one of -repo, -repo-file, -synthetic")
	case synthetic > 0:
		cfg := bellflower.DefaultSyntheticConfig()
		cfg.TargetNodes = synthetic
		cfg.Seed = seed
		return bellflower.Synthetic(cfg)
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return bellflower.LoadRepository(f)
	case dir != "":
		return loadDir(dir)
	default:
		return nil, fmt.Errorf("a repository is required (-repo DIR, -repo-file FILE or -synthetic N)")
	}
}

func loadDir(dir string) (*bellflower.Repository, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch strings.ToLower(filepath.Ext(e.Name())) {
		case ".xsd", ".dtd", ".xml":
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no .xsd or .dtd files in %s", dir)
	}
	repo := bellflower.NewRepository()
	for _, name := range names {
		trees, err := loadSchemaFile(filepath.Join(dir, name))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bellflower: skipping %s: %v\n", name, err)
			continue
		}
		for _, t := range trees {
			if err := repo.Add(t); err != nil {
				return nil, err
			}
		}
	}
	if repo.Len() == 0 {
		return nil, fmt.Errorf("no usable schemas in %s", dir)
	}
	return repo, nil
}

func loadSchemaFile(path string) ([]*bellflower.Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch strings.ToLower(filepath.Ext(path)) {
	case ".xsd":
		return bellflower.ParseXSD(f)
	case ".dtd":
		return bellflower.ParseDTD(f)
	case ".xml":
		t, err := bellflower.InferSchema(f)
		if err != nil {
			return nil, err
		}
		return []*bellflower.Tree{t}, nil
	default:
		return nil, fmt.Errorf("unsupported schema file %s (want .xsd, .dtd or .xml)", path)
	}
}
