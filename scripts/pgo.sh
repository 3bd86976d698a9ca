#!/usr/bin/env bash
# Regenerates the CPU profiles the Go toolchain builds cagcsim and
# cagcserve with (profile-guided optimisation, PGO):
#
#   cmd/cagcsim/default.pgo    the three CLI workload shapes of the
#                              benchmark: Mail x CAGC 250k requests,
#                              Web-vm x Baseline 100k, and -replay of a
#                              generated Homes trace under Inline-Dedupe
#   cmd/cagcserve/default.pgo  the service benchmark's job mix, run
#                              through cagcsim (the same library calls)
#
# `go build` reads default.pgo from a main package's directory on its
# own (-pgo=auto); `go build -pgo=off` is the off switch. The profiling
# binaries are built with -pgo=off, so a profile never feeds on the
# previous one. Run this after the last code change of a series, from
# anywhere in the checkout:
#
#   bash scripts/pgo.sh
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
seeds=20
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

go build -C "$root" -pgo=off -o "$work/" ./cmd/cagcsim ./cmd/cagctrace
sim="$work/cagcsim"

# Seeds 101.. stay clear of the benchmark's reference seeds (7, 1007).
for i in $(seq "$seeds"); do
	s=$((100 + i))
	p="$work/cli-$s"
	"$sim" -workload Mail -scheme cagc -requests 250000 -seed "$s" -json -cpuprofile "$p-mail.pprof" > /dev/null 2>&1
	"$sim" -workload Web-vm -scheme baseline -requests 100000 -seed "$s" -json -cpuprofile "$p-webvm.pprof" > /dev/null 2>&1
	"$work/cagctrace" gen -workload Homes -requests 250000 -seed "$s" -o "$work/homes.ctr" 2> /dev/null
	"$sim" -replay "$work/homes.ctr" -workload Homes -scheme inline -json -cpuprofile "$p-homes.pprof" > /dev/null 2>&1

	# The service's fleet and batch jobs alternate between the pairs the
	# benchmark's rounds submit.
	fleet=(-workload Mail -scheme cagc) batch=(-workload Mail -scheme cagc)
	if ((i % 2 == 0)); then
		fleet=(-workload Homes -scheme baseline) batch=(-workload Web-vm -scheme baseline)
	fi
	p="$work/serve-$s"
	"$sim" "${fleet[@]}" -fleet 32 -requests 1000 -workers 1 -fleet-util-spread 0.1 \
		-fleet-util-classes 2 -fleet-stagger 2 -seed "$s" -json -cpuprofile "$p-fleet.pprof" > /dev/null 2>&1
	"$sim" "${batch[@]}" -batch 8 -requests 1000 -seed "$s" -json -cpuprofile "$p-batch.pprof" > /dev/null 2>&1
done

# The service's run jobs: 4 000-request runs of every workload x scheme
# pair. A seed batch is the same cagc.Run calls in one process, each
# cloning one warm snapshot as the service's registry does.
for w in Mail Homes Web-vm; do
	for sch in cagc baseline inline; do
		"$sim" -workload "$w" -scheme "$sch" -batch "$seeds" -requests 4000 -workers 1 -seed 101 -json \
			-cpuprofile "$work/serve-runs-$w-$sch.pprof" > /dev/null 2>&1
	done
done

# pprof takes the merged profile's function records from its first
# input; an empty first input (a short run can take no sample) drops
# the start lines PGO needs, so the largest profile goes first.
go tool pprof -proto $(ls -S "$work"/cli-*.pprof) > "$root/cmd/cagcsim/default.pgo"
go tool pprof -proto $(ls -S "$work"/serve-*.pprof) > "$root/cmd/cagcserve/default.pgo"
echo "pgo: wrote cmd/cagcsim/default.pgo and cmd/cagcserve/default.pgo from $seeds seeds per shape"
