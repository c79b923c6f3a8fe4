"""Mondrian partitions, tree/forest estimators, oracles, and verification.

The package has four layers:

* :mod:`mondrianforest.partition` — boxes and Mondrian partition sampling,
  pruning, lifetime extension, restriction, point location, serialization;
* :mod:`mondrianforest.estimators` — tree and forest regressors, the plug-in
  classifier, the lifetime / forest-size schedules, and model save/load
  (``model_to_json`` and the ``*_model_to/from_dict`` functions);
* :mod:`mondrianforest.oracles` — closed-form expectations and risk bounds
  used as ground truth;
* :mod:`mondrianforest.harness` — Monte-Carlo experiments that verify the
  closed forms and the convergence-rate behavior.

Each module's ``__all__`` is its one list of public names, and the package
republishes all of them, with :mod:`mondrianforest.rng` first.
``mondrianforest.cli`` exposes all of it as the ``mondrian-forest`` command.
"""

from .rng import *
from .partition import *
from .estimators import *
from .oracles import *
from .harness import *
from . import estimators, harness, oracles, partition, rng

__version__ = "0.1.0"

__all__ = [*rng.__all__, *partition.__all__, *estimators.__all__, *oracles.__all__,
           *harness.__all__]
