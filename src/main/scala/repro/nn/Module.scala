package repro.nn

import scala.util.Random

/** A neural module: a named bag of parameter tensors. Serializable so a
  * trained model can be broadcast to Spark executors for inference.
  */
trait Module extends Serializable {
  def params: Seq[Tensor]
}

/** Affine layer y = xW + b. */
final class Linear(val w: Tensor, val b: Tensor) extends Module {
  def apply(x: Tensor)(implicit tp: Tape): Tensor = Ops.addRow(Ops.matmul(x, w), b)
  def params: Seq[Tensor] = Seq(w, b)
}

object Linear {
  def apply(inDim: Int, outDim: Int, rnd: Random): Linear =
    new Linear(Tensor.glorot(inDim, outDim, rnd), Tensor.zeros(1, outDim))
}

/** Two-layer MLP with ReLU: y = ReLU(xW1 + b1)W2 + b2 (paper Eq. 2/5/7/15). */
final class Mlp(val l1: Linear, val l2: Linear) extends Module {
  def apply(x: Tensor)(implicit tp: Tape): Tensor = l2(Ops.relu(l1(x)))
  def params: Seq[Tensor] = l1.params ++ l2.params
}

object Mlp {
  def apply(inDim: Int, hidden: Int, outDim: Int, rnd: Random): Mlp =
    new Mlp(Linear(inDim, hidden, rnd), Linear(hidden, outDim, rnd))
}

/** Learnable layer normalisation over the feature (column) axis. */
final class LayerNorm(val gain: Tensor, val bias: Tensor) extends Module {
  def apply(x: Tensor)(implicit tp: Tape): Tensor = Ops.layerNorm(x, gain, bias)
  def params: Seq[Tensor] = Seq(gain, bias)
}

object LayerNorm {
  def apply(dim: Int): LayerNorm =
    new LayerNorm(Tensor(1, dim)((_, _) => 1.0), Tensor.zeros(1, dim))
}

/** Embedding table (vocab x dim), looked up by integer id. Optionally
  * initialised from pre-trained vectors (e.g. Node2Vec, paper Eq. 1).
  */
final class Embedding(val table: Tensor) extends Module {
  def apply(ids: Array[Int])(implicit tp: Tape): Tensor = Ops.rows(table, ids)
  def params: Seq[Tensor] = Seq(table)
}

object Embedding {
  def apply(vocab: Int, dim: Int, rnd: Random): Embedding =
    new Embedding(Tensor.glorot(vocab, dim, rnd))
  def fromPretrained(vectors: Tensor): Embedding = new Embedding(vectors.copyTensor())
}
