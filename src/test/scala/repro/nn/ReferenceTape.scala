package repro.nn

import scala.collection.mutable

/** The gradient tape as it was before op outputs had slots and before
  * tensors could be constant: every gradient, an op output's as well as a
  * leaf's, is found by tensor identity, and every op's every input gets one,
  * constant or not. Kept as the reference for [[GradTape]], whose gradients
  * must equal these bit for bit.
  */
final class ReferenceTape extends Tape {
  val active = true
  private val ops = mutable.ArrayBuffer.empty[() => Unit]
  private val grads = new java.util.IdentityHashMap[Tensor, Array[Double]]()
  def needsGrad(t: Tensor): Boolean = true
  protected def push(y: Tensor, f: () => Unit): Unit = ops += f
  def grad(t: Tensor): Array[Double] = {
    var g = grads.get(t)
    if (g == null) { g = new Array[Double](t.size); grads.put(t, g) }
    g
  }
  def backward(loss: Tensor): Unit = {
    require(loss.size == 1, s"backward needs a scalar loss, got $loss")
    grad(loss)(0) = 1.0
    var i = ops.length - 1
    while (i >= 0) { ops(i)(); i -= 1 }
  }
}
