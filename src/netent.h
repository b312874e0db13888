// Umbrella header: the netent public API in one include.
//
//   #include "netent.h"
//
// pulls in every subsystem an application driver needs — topology modeling,
// hose requests, contract approval + negotiation, the contract database and
// serialization, lifecycle/manager orchestration, SLO verification, failure
// drills, the online admission service, and observability. Individual module
// headers (e.g. "approval/approval.h") remain includable on their own for
// translation units that want tighter dependencies; this header is for
// examples, tools, and downstream consumers of the library as a whole.
#pragma once

// Foundations: strong-typed ids/units, RNG, error handling, execution knobs.
#include "common/exec_config.h"
#include "common/expected.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/types.h"
#include "common/units.h"

// Observability (compiles to no-op stubs under -DNETENT_OBS=OFF).
#include "obs/export.h"
#include "obs/metrics.h"

// Network model: regions/fibers, routing, SRLGs, synthetic generators.
#include "topology/generator.h"
#include "topology/paths.h"
#include "topology/routing.h"
#include "topology/srlg_index.h"
#include "topology/topology.h"

// Demand model: traffic services, incidents, hose requests and clustering.
#include "hose/requests.h"
#include "hose/segmented.h"
#include "traffic/fleet.h"
#include "traffic/incident.h"
#include "traffic/service.h"

// Risk: failure scenarios, availability simulation.
#include "risk/failure.h"
#include "risk/simulator.h"

// Contracts: approval pipeline (and SLO verification), negotiation, database, serialization,
// lifecycle orchestration and reporting.
#include "approval/approval.h"
#include "approval/negotiation.h"
#include "core/contract.h"
#include "core/contract_db.h"
#include "core/json.h"
#include "core/lifecycle.h"
#include "core/manager.h"
#include "core/report.h"
#include "core/serialize.h"

// Declarative front-end: the entitlement spec language, the negotiation
// policy engine and the closed-loop tenant fleet driver.
#include "spec/fleet.h"
#include "spec/policy.h"
#include "spec/spec.h"

// Enforcement: host agents, markers/meters, switch ports, central control.
#include "enforce/agent.h"
#include "enforce/bpf.h"
#include "enforce/centralized.h"
#include "enforce/dscp.h"
#include "enforce/switchport.h"

// Operations: failure drills and the online admission service.
#include "service/admission.h"
#include "sim/drill_engine.h"
