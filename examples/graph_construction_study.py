#!/usr/bin/env python3
"""Graph-construction study: which similarity metric describes a person best?

A compact version of the paper's Experiment B for a single participant:
builds every static graph (Euclidean, kNN, DTW, correlation, random) at
several density thresholds, reports their structural properties, how well
each recovers the generator's ground-truth interaction graph, and how an
ASTGCN forecaster performs with each.

Run:  python examples/graph_construction_study.py
"""

import numpy as np

import repro.autodiff as ad
from repro.data import PreprocessingPipeline, SynthesisConfig, generate_cohort, split_windows
from repro.graphs import build_adjacency, density, graph_correlation
from repro.models import create_model
from repro.training import Trainer, TrainerConfig

ad.set_default_dtype(np.float32)

SEQ_LEN = 5
GDTS = (0.2, 1.0)
METHODS = ("euclidean", "knn", "dtw", "correlation", "random")


def main() -> None:
    raw = generate_cohort(SynthesisConfig(num_individuals=10, seed=21))
    cohort, _ = PreprocessingPipeline(min_compliance=0.5, max_individuals=1).run(raw)
    person = cohort[0]
    truth = person.ground_truth_graph
    split = split_windows(person.values, SEQ_LEN)
    train_segment = person.values[:split.boundary]
    trainer = Trainer(TrainerConfig(epochs=40))

    print(f"participant {person.identifier}: {person.num_time_points} x "
          f"{person.num_variables}")
    print(f"{'graph':14s} {'GDT':>5s} {'density':>8s} {'vs truth':>9s} "
          f"{'ASTGCN MSE':>11s}")
    for method in METHODS:
        for gdt in GDTS:
            kwargs = {"k": 5} if method == "knn" else {}
            graph = build_adjacency(train_segment, method, gdt=gdt,
                                    seed=0, **kwargs)
            recovery = graph_correlation(graph, truth)
            model = create_model("astgcn", person.num_variables, SEQ_LEN,
                                 adjacency=graph, seed=3)
            trainer.fit(model, split.train)
            mse = trainer.evaluate(model, split.test)
            print(f"{method:14s} {int(gdt * 100):4d}% {density(graph):8.2f} "
                  f"{recovery:9.2f} {mse:11.3f}")

    print("\nInformative graphs (correlation/DTW) recover the ground-truth "
          "structure;\nrandom graphs carry none of it — and ASTGCN's accuracy "
          "follows (paper, Experiment B).")


if __name__ == "__main__":
    main()
