"""Self-contained numpy neural engine: layers, BPTT, Adam, and weight
serialization.

Precision policy: training and inference math runs in float32
(`COMPUTE_DTYPE`) on a cast copy of the network. The float64 network is the
master: Adam updates it and the weight file stores it bit-exact.
"""

from .adam import Adam
from .layers import Dense, GruLayer, LstmLayer
from .network import (
    COMPUTE_DTYPE,
    DEFAULT_DENSE,
    DEFAULT_HIDDEN,
    RecurrentRegressor,
    TrainConfig,
    gru_observer_net,
    l2_loss,
    lstm_observer_net,
)
from .weights_io import load_weights, save_weights
