package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"svqact/internal/cluster"
	"svqact/internal/detect"
	"svqact/internal/rank"
	"svqact/internal/server"
	"svqact/internal/synth"
)

// system is everything one workload's setup builds: the servers on
// loopback, the repositories on disk and the setup phase timings.
type system struct {
	wl     *workload
	dir    string // scratch directory for this process's repositories
	target string // base URL every op is sent to
	// metricsURLs are the /metrics endpoints of every process-local server.
	metricsURLs []string
	servers     []*http.Server
	serveDone   sync.WaitGroup

	// Ranked and cluster workloads.
	repoDir  string                 // the unsplit repository
	indexes  map[string]*rank.Index // ingested members, re-saved by commits
	commitMu sync.Mutex
	entryB   int64 // bytes of score entries across the ingested tables
	writtenB int64 // bytes written under the repository by the initial saves

	phases map[string]float64 // setup phase -> seconds
}

func models() detect.Models {
	return detect.NewModels(
		detect.NewObjectDetector(detect.MaskRCNN, dataSeed),
		detect.NewActionRecognizer(detect.I3D, dataSeed),
	)
}

// quietLogger keeps the servers' per-query log lines (their formatting
// cost included) off the benchmark's output.
func quietLogger() *slog.Logger { return slog.New(slog.NewJSONHandler(io.Discard, nil)) }

// phase times fn as the named setup phase.
func (s *system) phase(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	s.phases[name] += time.Since(start).Seconds()
	if err != nil {
		return fmt.Errorf("setup %s: %w", name, err)
	}
	return nil
}

// buildSystem runs the workload's setup: dataset generation, ingestion,
// repository save/open, and starting the servers (and coordinator).
func buildSystem(wl *workload, dir string) (*system, error) {
	s := &system{wl: wl, dir: dir, phases: map[string]float64{}}
	var err error
	switch wl.Name {
	case "online":
		err = s.setupOnline()
	default:
		err = s.setupRanked()
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *system) setupOnline() error {
	srv := server.New(server.Config{Scale: s.wl.Scale, Seed: dataSeed, Logger: quietLogger()})
	// The server generates its datasets lazily; listing the sources forces
	// that now so it is timed as its own phase.
	if err := s.phase("synth", func() error {
		if len(srv.Sources()) == 0 {
			return errors.New("no sources")
		}
		return nil
	}); err != nil {
		return err
	}
	return s.phase("serve", func() error {
		url, err := s.listen(srv.Handler())
		s.target = url
		s.metricsURLs = append(s.metricsURLs, url)
		return err
	})
}

func (s *system) setupRanked() error {
	var mv *synth.Dataset
	if err := s.phase("synth", func() error {
		mv = synth.Movies(synth.Options{Scale: s.wl.Scale, Seed: dataSeed})
		return nil
	}); err != nil {
		return err
	}
	s.indexes = map[string]*rank.Index{}
	if err := s.phase("rank", func() error {
		m := models()
		for _, v := range mv.Videos {
			ix, err := rank.Ingest(context.Background(), v, m, rank.PaperScoring(), rank.DefaultIngestConfig())
			if err != nil {
				return err
			}
			s.indexes[v.ID()] = ix
			for _, set := range []map[string]*rank.TypeIndex{ix.Objects, ix.Actions} {
				for _, ti := range set {
					s.entryB += int64(ti.Table.Len()) * 12 // 4-byte clip id + 8-byte score
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	s.repoDir = filepath.Join(s.dir, "repo")
	if err := s.phase("store", func() error {
		repo, err := rank.OpenRepository(s.repoDir)
		if err != nil {
			return err
		}
		defer repo.Close()
		for _, name := range sortedKeys(s.indexes) {
			if err := repo.Add(s.indexes[name]); err != nil {
				return err
			}
		}
		s.writtenB, err = dirBytes(s.repoDir)
		return err
	}); err != nil {
		return err
	}
	if s.wl.Name == "ranked" {
		srv := server.New(server.Config{Scale: s.wl.Scale, Seed: dataSeed, RepoDir: s.repoDir, Logger: quietLogger()})
		if err := s.phase("store", srv.Reload); err != nil {
			return err
		}
		return s.phase("serve", func() error {
			url, err := s.listen(srv.Handler())
			s.target = url
			s.metricsURLs = append(s.metricsURLs, url)
			return err
		})
	}
	shardDirs := []string{filepath.Join(s.dir, "shard0"), filepath.Join(s.dir, "shard1")}
	if err := s.phase("store", func() error { return cluster.SplitRepository(s.repoDir, shardDirs) }); err != nil {
		return err
	}
	shards := make([]*server.Server, len(shardDirs))
	for i, d := range shardDirs {
		shards[i] = server.New(server.Config{Scale: s.wl.Scale, Seed: dataSeed, RepoDir: d,
			ShardName: fmt.Sprintf("s%d", i), Logger: quietLogger()})
		if err := s.phase("store", shards[i].Reload); err != nil {
			return err
		}
	}
	return s.phase("cluster", func() error {
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
		var specs []cluster.ShardSpec
		for i, srv := range shards {
			url, err := s.listen(srv.Handler())
			if err != nil {
				return err
			}
			s.metricsURLs = append(s.metricsURLs, url)
			name := fmt.Sprintf("s%d", i)
			specs = append(specs, cluster.ShardSpec{Name: name, Replicas: []cluster.Backend{cluster.NewHTTPBackend(name, url, client)}})
		}
		coord, err := cluster.New(specs, cluster.Config{Logger: quietLogger()})
		if err != nil {
			return err
		}
		url, err := s.listen(coord.Handler())
		s.target = url
		s.metricsURLs = append(s.metricsURLs, url)
		return err
	})
}

// listen serves h on a fresh loopback port with the serving timeouts of
// cmd/serve and returns its base URL.
func (s *system) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, ReadTimeout: 15 * time.Second,
		WriteTimeout: 60 * time.Second, IdleTimeout: 60 * time.Second}
	s.servers = append(s.servers, hs)
	s.serveDone.Add(1)
	go func() {
		defer s.serveDone.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

// close shuts every server down and waits for their serve loops to return.
func (s *system) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range s.servers {
		if err := hs.Shutdown(ctx); err != nil {
			_ = hs.Close()
		}
	}
	s.serveDone.Wait()
}

// commit re-saves one member as a new generation and asks the server to
// reload, returning the generation the reload reports. Commits are
// serialised: the repository has one writer.
func (s *system) commit(client *http.Client, member string) (int, error) {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	ix := s.indexes[member]
	if ix == nil {
		return 0, fmt.Errorf("commit: unknown member %q", member)
	}
	if err := rank.Save(filepath.Join(s.repoDir, member), ix); err != nil {
		return 0, err
	}
	resp, err := client.Post(s.target+"/repo/reload", "application/json", nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var rh server.RepoHealth
	if err := json.NewDecoder(resp.Body).Decode(&rh); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK || rh.Failed {
		return 0, fmt.Errorf("reload: status %d: %s", resp.StatusCode, rh.Error)
	}
	return rh.Generation, nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
