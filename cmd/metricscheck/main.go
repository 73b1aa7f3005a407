// Command metricscheck validates a Prometheus text exposition — the
// format memverifyd serves at /metrics. It checks
// structural legality (unique metric names, legal characters, HELP/TYPE
// present for every family, well-formed cumulative histograms) and, given
// an earlier scrape of the same process, that counters and histogram
// buckets never move backwards. CI scrapes a live memverifyd twice and
// runs the second scrape through -prev to gate the live surface.
//
// Usage:
//
//	metricscheck scrape.prom                 # validate one exposition file
//	metricscheck -url http://127.0.0.1:9090/metrics
//	metricscheck -prev first.prom second.prom  # + monotonicity across scrapes
//	metricscheck -get http://127.0.0.1:9090/healthz  # print body; exit 7 unless HTTP 200
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"memverify/internal/obs"
)

func main() {
	prev := flag.String("prev", "", "earlier exposition file from the same process; counters must not move backwards")
	url := flag.String("url", "", "fetch the exposition from this URL instead of a file argument")
	get := flag.String("get", "", "plain HTTP fetch: print the response body, exit 0 on HTTP 200 and 7 otherwise (CI health polling)")
	flag.Parse()

	if *get != "" {
		os.Exit(fetch(*get))
	}
	if err := run(*prev, *url, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "metricscheck:", err)
		os.Exit(1)
	}
}

// fetch implements -get: a curl-shaped probe with the status code folded
// into the exit code so shell gates need no output parsing.
func fetch(url string) int {
	resp, err := http.Get(url)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metricscheck:", err)
		return 7
	}
	defer resp.Body.Close()
	io.Copy(os.Stdout, resp.Body) //nolint:errcheck // best-effort body
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "metricscheck: %s: HTTP %d\n", url, resp.StatusCode)
		return 7
	}
	return 0
}

func run(prevPath, url string, args []string) error {
	var cur *obs.Scrape
	var err error
	switch {
	case url != "":
		if len(args) != 0 {
			return fmt.Errorf("pass either -url or a file argument, not both")
		}
		cur, err = scrapeURL(url)
	case len(args) == 1:
		cur, err = scrapeFile(args[0])
	default:
		return fmt.Errorf("usage: metricscheck [-prev FILE] (-url URL | FILE)")
	}
	if err != nil {
		return err
	}

	if prevPath != "" {
		prev, err := scrapeFile(prevPath)
		if err != nil {
			return fmt.Errorf("prev: %w", err)
		}
		if err := obs.CompareScrapes(prev, cur); err != nil {
			return err
		}
	}

	samples := 0
	for _, fam := range cur.Families {
		samples += len(fam.Samples)
	}
	fmt.Printf("metricscheck: OK (%d families, %d samples)\n", len(cur.Families), samples)
	return nil
}

func scrapeFile(path string) (*obs.Scrape, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc, err := obs.ValidateExposition(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

func scrapeURL(url string) (*obs.Scrape, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	sc, err := obs.ValidateExposition(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", url, err)
	}
	return sc, nil
}
